package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"hkpr"
)

// remoteConfig is the -server client mode: instead of loading a graph
// locally, each seed is queried against a running hkprserver's /cluster
// endpoint with bounded retry.  -server accepts a
// comma-separated endpoint list: a 5xx response or a transport failure
// (connection refused among them) fails the query over to the next endpoint
// immediately, and only when every endpoint is unavailable does the client
// back off — with jittered exponential delay, honoring the smallest
// Retry-After drain estimate any endpoint advertised.  The -retries budget
// bounds the full passes over the endpoint list per seed.
type remoteConfig struct {
	servers []string
	method  string
	epsRel  float64
	topK    int
	retries int
	base    time.Duration
	max     time.Duration
	rngSeed uint64

	// preferred is the index of the endpoint that last answered; each query
	// starts there so the client sticks with a known-good endpoint instead of
	// re-probing dead ones (runRemote is sequential, so no locking).
	preferred int
}

// remoteCluster mirrors the hkprserver /cluster response fields the client
// renders; unknown fields are ignored so the two binaries can evolve apart.
type remoteCluster struct {
	Seed        int64   `json:"seed"`
	Method      string  `json:"method"`
	Cluster     []int64 `json:"cluster"`
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced"`
	Epoch       uint64  `json:"epoch"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Degraded    string  `json:"degraded"`
	Error       string  `json:"error"`
}

// backoffDelay computes the wait before retry attempt (1-based), doubling
// from cfg.base with multiplicative jitter in [0.5, 1.5) so a fleet of
// clients shed together does not retry together.  A Retry-After hint from the
// server raises the wait to at least the advertised drain estimate.  The
// result is clamped to cfg.max.
func backoffDelay(cfg *remoteConfig, attempt int, retryAfter time.Duration, rng *rand.Rand) time.Duration {
	d := cfg.base << (attempt - 1)
	if d <= 0 || d > cfg.max { // shift overflow or past the cap
		d = cfg.max
	}
	d = time.Duration(float64(d) * (0.5 + rng.Float64()))
	if retryAfter > d {
		d = retryAfter
	}
	if d > cfg.max {
		d = cfg.max
	}
	return d
}

// clusterURL renders one endpoint's /cluster URL for a seed.
func clusterURL(cfg *remoteConfig, endpoint string, seed hkpr.NodeID) string {
	return fmt.Sprintf("%s/cluster?seed=%d&method=%s&eps=%s",
		strings.TrimSuffix(endpoint, "/"), seed,
		url.QueryEscape(cfg.method), url.QueryEscape(strconv.FormatFloat(cfg.epsRel, 'g', -1, 64)))
}

// queryRemote fetches one seed's cluster with failover and retry.  Each
// attempt is one pass over the endpoint list starting at the last endpoint
// that answered: a 5xx or transport failure moves on to the next endpoint
// without waiting, a 4xx is terminal, and only when the whole pass comes up
// empty does the client back off before the next one.  Only transient
// outcomes consume the -retries budget.
func queryRemote(client *http.Client, cfg *remoteConfig, seed hkpr.NodeID, rng *rand.Rand, out io.Writer) (*remoteCluster, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		// The smallest Retry-After hint any shedding endpoint returned this
		// pass: the soonest anyone expects to have drained.
		var retryAfter time.Duration
		for i := 0; i < len(cfg.servers); i++ {
			ep := (cfg.preferred + i) % len(cfg.servers)
			rc, ra, err := fetchCluster(client, clusterURL(cfg, cfg.servers[ep], seed))
			if err == nil {
				cfg.preferred = ep
				return rc, nil
			}
			lastErr = err
			if ra < 0 {
				return nil, fmt.Errorf("seed %d: %w", seed, err)
			}
			if ra > 0 && (retryAfter == 0 || ra < retryAfter) {
				retryAfter = ra
			}
			if i+1 < len(cfg.servers) {
				fmt.Fprintf(out, "seed %d: %s unavailable (%v), failing over\n", seed, cfg.servers[ep], err)
			}
		}
		if attempt > cfg.retries {
			return nil, fmt.Errorf("seed %d: %d attempts exhausted: %w", seed, attempt, lastErr)
		}
		d := backoffDelay(cfg, attempt, retryAfter, rng)
		fmt.Fprintf(out, "seed %d: overloaded (attempt %d/%d), backing off %v\n", seed, attempt, cfg.retries+1, d.Round(time.Millisecond))
		time.Sleep(d)
	}
}

// fetchCluster performs one attempt.  A negative retryAfter marks the error
// terminal; zero or positive means retryable with that server hint (zero =
// none given).
func fetchCluster(client *http.Client, u string) (*remoteCluster, time.Duration, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, 0, err // transport failure: retryable, no hint
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, 0, err
	}
	var rc remoteCluster
	if err := json.Unmarshal(body, &rc); err != nil && resp.StatusCode == http.StatusOK {
		return nil, -1, fmt.Errorf("bad response body: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return &rc, 0, nil
	case http.StatusServiceUnavailable:
		ra := time.Duration(0)
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
		msg := rc.Error
		if msg == "" {
			msg = "overloaded"
		}
		return nil, ra, fmt.Errorf("server overloaded: %s", msg)
	default:
		msg := rc.Error
		if msg == "" {
			msg = strings.TrimSpace(string(body))
		}
		retryAfter := time.Duration(-1)
		if resp.StatusCode >= 500 {
			// Any server-side failure is an endpoint problem, not a query
			// problem: eligible for failover to the next endpoint.
			retryAfter = 0
		}
		return nil, retryAfter, fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
}

// runRemote queries every seed against the remote server and renders the
// same cluster summaries the local path prints.
func runRemote(cfg *remoteConfig, seeds []hkpr.NodeID, out io.Writer) error {
	client := &http.Client{Timeout: 60 * time.Second}
	rng := rand.New(rand.NewSource(int64(cfg.rngSeed)))
	for _, seed := range seeds {
		rc, err := queryRemote(client, cfg, seed, rng, out)
		if err != nil {
			return err
		}
		if len(seeds) > 1 {
			fmt.Fprintf(out, "--- seed %d ---\n", seed)
		}
		fmt.Fprintf(out, "query time: %.2fms  (method=%s cached=%v coalesced=%v epoch=%d)\n",
			rc.ElapsedMS, rc.Method, rc.Cached, rc.Coalesced, rc.Epoch)
		if rc.Degraded != "" {
			fmt.Fprintf(out, "degraded: %s (served in a reduced mode under server overload)\n", rc.Degraded)
		}
		fmt.Fprintf(out, "cluster: %d nodes, conductance %.4f\n", rc.Size, rc.Conductance)
		members := append([]int64(nil), rc.Cluster...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		if len(members) > cfg.topK {
			members = members[:cfg.topK]
		}
		strs := make([]string, len(members))
		for i, v := range members {
			strs[i] = strconv.FormatInt(v, 10)
		}
		fmt.Fprintf(out, "members (first %d): %s\n", len(members), strings.Join(strs, " "))
	}
	return nil
}
