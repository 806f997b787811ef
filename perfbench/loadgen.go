package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hkpr/internal/graph"
)

// probeGap is the pause before each probe update, about update-mix's time
// between batches.  Back to back, each batch would publish while the
// background compaction of the last threshold's overlay is still flattening,
// which discards that compaction; the overlay would then keep growing at a
// rate set by timing, and so would the update latency.
const probeGap = 60 * time.Millisecond

// clients is the closed loop's size: one client per CPU, each waiting for its
// reply before sending the next request, as a user exploring a graph waits
// for a cluster before picking the next seed.
var clients = runtime.NumCPU()

// server is one running hkprserver process.
type server struct {
	cmd      *exec.Cmd
	base     string
	log      *os.File
	done     chan error // receives cmd.Wait's result once
	stopOnce sync.Once
}

// live holds the servers started and not yet stopped, so that a signal to
// the benchmark stops them before it exits.
var live = struct {
	sync.Mutex
	servers map[*server]bool
}{servers: map[*server]bool{}}

// stopLive stops every server still running.
func stopLive() {
	live.Lock()
	servers := make([]*server, 0, len(live.servers))
	for s := range live.servers {
		servers = append(servers, s)
	}
	live.Unlock()
	for _, s := range servers {
		s.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches hkprserver with default flags (only -graph and -addr
// set) and returns once /healthz answers 200, with the time that took.
func startServer(bin, graphPath, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick a port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-graph", graphPath, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.done <- cmd.Wait() }()
	live.Lock()
	live.servers[s] = true
	live.Unlock()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err // for stop, which waits on it
			s.stop()
			return nil, 0, fmt.Errorf("hkprserver exited before becoming healthy: %v (log: %s)", err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, errors.New("hkprserver did not become healthy within 60s")
		}
	}
}

// stop terminates the server and waits for the process to exit.  Calls
// after the first return at once.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.log.Close()
		live.Lock()
		delete(live.servers, s)
		live.Unlock()
	})
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// workers reads the server's worker count from /stats; at default flags it
// is the server's GOMAXPROCS.
func (s *server) workers() (int, error) {
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Serving struct {
			Workers int `json:"workers"`
		} `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decode /stats: %w", err)
	}
	return st.Serving.Workers, nil
}

// reply is one request's raw outcome, kept unparsed until the window closes
// so checking takes no CPU from the server while it is timed.
type reply struct {
	Node    graph.NodeID // the seed asked for; unused for updates
	Status  int
	Body    []byte
	Latency time.Duration
	Err     error
}

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// do sends one request and reads the whole body; Latency runs from the send
// to the last body byte.
func (c *client) do(req *http.Request) reply {
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{Err: err, Latency: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return reply{Status: resp.StatusCode, Body: body, Latency: lat, Err: err}
}

func (c *client) read(url string, v graph.NodeID) reply {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return reply{Node: v, Err: err}
	}
	r := c.do(req)
	r.Node = v
	return r
}

func (c *client) update(body []byte) reply {
	req, err := http.NewRequest(http.MethodPost, c.base+"/update", bytes.NewReader(body))
	if err != nil {
		return reply{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// clusterURL is the /cluster request for one seed: the default TEA+ query
// with a full sweep, plus topk when the workload renders scores.
func clusterURL(base string, v graph.NodeID, topK int) string {
	u := base + "/cluster?seed=" + strconv.Itoa(int(v))
	if topK > 0 {
		u += "&topk=" + strconv.Itoa(topK)
	}
	return u
}

// updateBody is the POST /update JSON for one batch.
func updateBody(b *Batch) []byte {
	body, _ := json.Marshal(struct {
		AddEdges    [][2]graph.NodeID `json:"add_edges"`
		RemoveEdges [][2]graph.NodeID `json:"remove_edges"`
	}{b.Add, b.Remove}) // marshalling int pairs cannot fail
	return body
}

// runReads sends reads from all clients as a closed loop and returns the
// replies in plan order.
func runReads(cs []*client, base string, reads []graph.NodeID, topK int) []reply {
	urls := make([]string, len(reads))
	for i, v := range reads {
		urls[i] = clusterURL(base, v, topK)
	}
	out := make([]reply, len(reads))
	closedLoop(len(reads), func(client, i int) { out[i] = cs[client].read(urls[i], reads[i]) })
	return out
}

// closedLoop runs fn(client, i) for i in [0, n) from one goroutine per
// client; each client takes the next i when it finishes the last.
func closedLoop(n int, fn func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(c, i)
			}
		}()
	}
	wg.Wait()
}

// e2eRun is everything the untraced run observed.
type e2eRun struct {
	WarmUp  []reply
	Reads   []reply // window reads, plan order
	Epochs  []uint64
	Updates []reply // window updates then probe updates
	Window  time.Duration
}

// driveServer sends the whole plan to the server.  Only the window and the
// probe's updates are timed.
func driveServer(s *server, p *Plan) *e2eRun {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(s.base)
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	bodies := make([][]byte, 0, len(p.Window)+len(p.Probe))
	for _, b := range p.Updates() {
		bodies = append(bodies, updateBody(&b))
	}
	run := &e2eRun{WarmUp: runReads(cs, s.base, p.WarmUp, p.TopK)}
	epoch := uint64(0)
	// No collection in this process while it times requests: its pauses
	// would land in the measured latencies.  The memory limit still forces
	// one should the window's garbage ever approach it.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(1 << 30)
	start := time.Now()
	for _, r := range p.Window {
		for range r.Reads {
			run.Epochs = append(run.Epochs, epoch)
		}
		run.Reads = append(run.Reads, runReads(cs, s.base, r.Reads, p.TopK)...)
		if r.Update != nil {
			run.Updates = append(run.Updates, cs[0].update(bodies[len(run.Updates)]))
			epoch++
		}
	}
	run.Window = time.Since(start)
	for range p.Probe {
		time.Sleep(probeGap)
		run.Updates = append(run.Updates, cs[0].update(bodies[len(run.Updates)]))
	}
	debug.SetGCPercent(gc)
	debug.SetMemoryLimit(limit)
	return run
}
