package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one gorderd process with its own data directory. It is
// started with default flags plus a private store and no job
// manifest, and stopped by its own PID — never by a name pattern,
// which would also match the shell that started the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	url  string
	done chan struct{} // closed once cmd.Wait returns
}

// addrWriter captures the daemon's "gorderd listening on ADDR" line.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf == nil && w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		line := string(w.buf[:i])
		w.buf = nil
		if a, ok := strings.CutPrefix(line, "gorderd listening on "); ok {
			w.addr <- strings.TrimSpace(a)
		}
		close(w.addr)
		w.addr = nil
	}
	return len(p), nil
}

// startDaemon launches bin in a fresh directory under workDir and waits
// until it announces its address.
func startDaemon(bin, workDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "gorderd-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "gorderd.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := make(chan string, 1)
	aw := &addrWriter{addr: addr}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-data-dir", filepath.Join(dir, "data"), "-manifest", "")
	cmd.Dir = dir
	cmd.Stdout = aw
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a, ok := <-addr:
		if ok {
			d.url = "http://" + a
			return d, nil
		}
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("gorderd did not announce its address (log: %s)", tail(filepath.Join(dir, "gorderd.log")))
}

// stop terminates the daemon by PID, waits for it to exit, and removes
// its directory.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	os.RemoveAll(d.dir)
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 400 {
		data = data[len(data)-400:]
	}
	return strings.TrimSpace(string(data))
}

// client is the benchmark's HTTP side: one transport whose connection
// count is capped, so the load never exceeds conns requests in flight.
type client struct {
	base string
	hc   *http.Client
	// pollLate is how late each job-poll sleep woke: the closed-loop
	// counterpart of open-loop generator lateness, in ms.
	mu       sync.Mutex
	pollLate []float64
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out. A
// non-2xx status is returned with a nil error; err is transport or
// decoding failure only.
func (c *client) do(method, path, ctype string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 || out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(bufio.NewReader(resp.Body)).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

func (c *client) postJSON(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return c.do(http.MethodPost, path, "application/json", body, out)
}

func (c *client) get(path string, out any) (int, error) {
	return c.do(http.MethodGet, path, "", nil, out)
}

// graphInfo is the part of the daemon's graph description the
// benchmark reads.
type graphInfo struct {
	ID      string `json:"id"`
	Edges   int64  `json:"edges"`
	Version int    `json:"version"`
}

func (c *client) upload(name string, data []byte) (graphInfo, error) {
	var info graphInfo
	status, err := c.do(http.MethodPost, "/graphs?name="+name, "application/octet-stream", data, &info)
	if err == nil && status != http.StatusCreated && status != http.StatusOK {
		err = fmt.Errorf("uploading %s: status %d", name, status)
	}
	return info, err
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error"`
	DurationMs int64  `json:"duration_ms"`
}

// pollInterval is how often a client polls a submitted job. It bounds
// the quantisation of the order-job times at a few percent of the smallest job.
const pollInterval = 2 * time.Millisecond

// orderJob submits a gorder job for graph and polls until it ends. It
// returns the final status and the time from submit to observed done.
func (c *client) orderJob(graph string) (jobStatus, time.Duration, error) {
	t0 := time.Now()
	var st jobStatus
	status, err := c.postJSON("/jobs", map[string]string{"kind": "order", "graph": graph, "method": "gorder"}, &st)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submitting order job for %s: status %d", graph, status)
	}
	for err == nil && st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			return st, 0, fmt.Errorf("order job %s %s: %s", st.ID, st.State, st.Error)
		}
		t := time.Now()
		time.Sleep(pollInterval)
		late := ms(time.Since(t) - pollInterval)
		c.mu.Lock()
		c.pollLate = append(c.pollLate, late)
		c.mu.Unlock()
		id := st.ID
		if status, err = c.get("/jobs/"+id, &st); err == nil && status != http.StatusOK {
			err = fmt.Errorf("polling job %s: status %d", id, status)
		}
	}
	return st, time.Since(t0), err
}

// counters fetches /metrics.
func (c *client) counters() (map[string]int64, error) {
	m := map[string]int64{}
	status, err := c.get("/metrics", &m)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", status)
	}
	return m, err
}

// delta returns after[name] - before[name] for a counter.
func delta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}
