package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// compareRepeat checks the counts that must repeat exactly between runs of
// the same code on the same inputs.  It compares them with the record an
// earlier run in this checkout left for the same plan (the plan digest covers
// the workload, the seed and the plan's size) and the same code, then stores
// the union.  The code is identified by the digests of the hkprserver binary
// and of this benchmark's own binary, which links the modules the traced run
// replays; a rebuild from changed sources therefore starts a fresh record
// instead of comparing against another version's counts.  It returns one
// message per count that differs.
func compareRepeat(bin string, p *Plan, counts map[string]string) ([]string, error) {
	code, err := codeDigest(filepath.Join(bin, "hkprserver"))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(bin, "repeat")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%s.json", p.Workload, p.Seed, p.Digest(), code))
	prev := map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("repeat record %s: %w", path, err)
		}
	}
	if len(prev) > 0 {
		fmt.Printf("repeat: exact counts compared with an earlier run's %s\n", path)
	}
	var msgs []string
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if old, ok := prev[k]; ok && old != counts[k] {
			msgs = append(msgs, fmt.Sprintf("%s = %s, an earlier run on the same seed had %s", k, counts[k], old))
		}
		prev[k] = counts[k]
	}
	out, err := json.MarshalIndent(prev, "", "  ")
	if err != nil {
		return nil, err
	}
	return msgs, os.WriteFile(path, out, 0o644)
}

// codeDigest is a short hash of the server binary and of the running
// benchmark binary.
func codeDigest(server string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, path := range []string{server, self} {
		d, err := fileDigest(path)
		if err != nil {
			return "", err
		}
		io.WriteString(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fileDigest is the hex SHA-256 of a file, recorded so two results can be
// shown to come from the same graph.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
