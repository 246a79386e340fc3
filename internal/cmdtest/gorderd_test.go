package cmdtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// startGorderd launches the daemon on a kernel-assigned port and
// returns its base URL plus the running process. The daemon announces
// the resolved address on stdout.
func startGorderd(t *testing.T, extraArgs ...string) (string, *exec.Cmd) {
	t.Helper()
	return startGorderdIn(t, t.TempDir(), extraArgs...)
}

// startGorderdIn is startGorderd with TMPDIR set to tmpDir, where a
// daemon started without -data-dir puts its temporary store.
func startGorderdIn(t *testing.T, tmpDir string, extraArgs ...string) (string, *exec.Cmd) {
	t.Helper()
	base, _, cmd := launchGorderd(t, tmpDir, extraArgs...)
	return base, cmd
}

// launchGorderd is startGorderdIn that also returns the base URL of
// the debug server, which the daemon announces after its API address
// when started with -debug-addr ("" without it).
func launchGorderd(t *testing.T, tmpDir string, extraArgs ...string) (string, string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-grace", "10s"}, extraArgs...)
	cmd := exec.Command(filepath.Join(binDir, "gorderd"), args...)
	cmd.Dir = t.TempDir() // keep any default manifest writes out of the repo
	cmd.Env = append(os.Environ(), "TMPDIR="+tmpDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	addrCh, debugCh := make(chan string, 1), make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "gorderd listening on "); ok {
				addrCh <- "http://" + rest
			}
			if rest, ok := strings.CutPrefix(line, "gorderd debug server on "); ok {
				debugCh <- "http://" + rest
			}
		}
	}()
	var base, debug string
	select {
	case base = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("gorderd never announced its address")
	}
	if slices.Contains(extraArgs, "-debug-addr") {
		select {
		case debug = <-debugCh:
		case <-time.After(30 * time.Second):
			t.Fatal("gorderd -debug-addr never announced its debug server")
		}
	}
	return base, debug, cmd
}

func httpJSON[T any](t *testing.T, method, url, contentType string, body io.Reader) (int, T) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, v
}

// TestGorderdSmoke drives the daemon end to end over real HTTP:
// health check, graph upload, gorder job to completion, permutation
// download (validated and score-checked), metrics, and a clean
// SIGTERM shutdown.
func TestGorderdSmoke(t *testing.T) {
	base, cmd := startGorderd(t)

	// Liveness.
	if code, _ := httpJSON[map[string]any](t, http.MethodGet, base+"/healthz", "", nil); code != 200 {
		t.Fatalf("healthz: status %d", code)
	}

	// Generate a dataset with the existing tooling and upload it.
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	run(t, "graphgen", "-type", "social", "-n", "800", "-seed", "11", "-format", "text", "-o", graphPath)
	data, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	code, info := httpJSON[map[string]any](t, http.MethodPost,
		base+"/graphs?name=social800", "application/octet-stream", bytes.NewReader(data))
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d (%v)", code, info)
	}

	// Submit a gorder job and poll it to done.
	jobBody := `{"kind":"order","graph":"social800","method":"gorder","window":5}`
	code, job := httpJSON[map[string]any](t, http.MethodPost, base+"/jobs", "application/json", strings.NewReader(jobBody))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, job)
	}
	id, _ := job["id"].(string)
	if id == "" {
		t.Fatalf("job response has no id: %v", job)
	}
	var state string
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		_, st := httpJSON[map[string]any](t, http.MethodGet, base+"/jobs/"+id, "", nil)
		state, _ = st["state"].(string)
		if state == "done" || state == "failed" || state == "canceled" {
			if state != "done" {
				t.Fatalf("job ended %s: %v", state, st)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state != "done" {
		t.Fatalf("job stuck in state %q", state)
	}

	// Download and validate the permutation; it must beat identity.
	resp, err := http.Get(base + "/jobs/" + id + "/permutation")
	if err != nil {
		t.Fatal(err)
	}
	perm, err := order.ReadPermutation(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("downloaded permutation invalid: %v", err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != g.NumNodes() {
		t.Fatalf("permutation covers %d vertices, graph has %d", len(perm), g.NumNodes())
	}
	if got, base0 := order.Score(g, perm, 5), order.Score(g, order.Identity(g.NumNodes()), 5); got <= base0 {
		t.Fatalf("gorder score %d does not beat identity %d", got, base0)
	}

	// Metrics counted the work.
	if code, snap := httpJSON[map[string]int64](t, http.MethodGet, base+"/metrics", "", nil); code != 200 ||
		snap["jobs_completed"] < 1 || snap["store_graphs"] < 1 {
		t.Fatalf("metrics: status %d snapshot %v", code, snap)
	}

	// Graceful shutdown: SIGTERM, clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gorderd exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("gorderd ignored SIGTERM")
	}
}

// TestGorderdDebugAddrServesPprof: with -debug-addr the daemon serves
// net/http/pprof's heap profile on that listener, announced after the
// API address, and the API address does not serve it.
func TestGorderdDebugAddrServesPprof(t *testing.T) {
	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	base, debug, _ := launchGorderd(t, t.TempDir(), "-debug-addr", "127.0.0.1:0")
	if code := get(debug + "/debug/pprof/heap"); code != http.StatusOK {
		t.Fatalf("debug server /debug/pprof/heap: status %d, want 200", code)
	}
	if code := get(base + "/debug/pprof/heap"); code != http.StatusNotFound {
		t.Fatalf("API address /debug/pprof/heap: status %d, want 404", code)
	}
}

// TestGorderdPreloadsDataDir checks the -data preload path: a dataset
// directory's graphs are queryable without an upload.
func TestGorderdPreloadsDataDir(t *testing.T) {
	dataDir := t.TempDir()
	run(t, "graphgen", "-type", "er", "-n", "64", "-seed", "5", "-o", filepath.Join(dataDir, "er64.bin"))
	base, cmd := startGorderd(t, "-data", dataDir)

	code, gi := httpJSON[map[string]any](t, http.MethodGet, base+"/graphs/er64", "", nil)
	if code != http.StatusOK {
		t.Fatalf("preloaded graph lookup: status %d (%v)", code, gi)
	}
	if n, _ := gi["nodes"].(float64); int(n) != 64 {
		t.Fatalf("preloaded graph nodes = %v, want 64", gi["nodes"])
	}

	jobBody := `{"kind":"eval","graph":"er64"}`
	code, job := httpJSON[map[string]any](t, http.MethodPost, base+"/jobs", "application/json", strings.NewReader(jobBody))
	if code != http.StatusAccepted {
		t.Fatalf("eval submit: status %d (%v)", code, job)
	}

	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gorderd exited uncleanly: %v", err)
	}
}

// TestGorderdManifestReplay shuts a daemon down with queued jobs and
// confirms the next instance replays them from the manifest.
func TestGorderdManifestReplay(t *testing.T) {
	workDir := t.TempDir()
	dataDir := t.TempDir()
	manifest := filepath.Join(workDir, "m.json")
	// A graph big enough that a gorder job occupies the single worker
	// while more jobs pile up behind it.
	run(t, "graphgen", "-type", "social", "-n", "30000", "-seed", "3", "-o", filepath.Join(dataDir, "big.bin"))

	base, cmd := startGorderd(t, "-data", dataDir, "-workers", "1", "-manifest", manifest, "-grace", "2s")
	for i := 0; i < 4; i++ {
		body := `{"kind":"order","graph":"big","method":"gorder"}`
		code, st := httpJSON[map[string]any](t, http.MethodPost, base+"/jobs", "application/json", strings.NewReader(body))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, st)
		}
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gorderd exited uncleanly: %v", err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) == 0 {
		t.Fatal("manifest persisted no queued jobs")
	}

	// Second instance replays them.
	base2, cmd2 := startGorderd(t, "-data", dataDir, "-workers", "2", "-manifest", manifest)
	code, list := httpJSON[map[string][]map[string]any](t, http.MethodGet, base2+"/jobs", "", nil)
	if code != http.StatusOK {
		t.Fatalf("job list: status %d", code)
	}
	if len(list["jobs"]) != len(m.Jobs) {
		t.Fatalf("replayed %d jobs, manifest had %d", len(list["jobs"]), len(m.Jobs))
	}
	// The manifest is consumed so a crash loop cannot double-submit.
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Fatalf("manifest not cleared after replay: %v", err)
	}
	cmd2.Process.Signal(syscall.SIGTERM)
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("second gorderd exited uncleanly: %v", err)
	}
}

// TestGorderdStoreSurvivesRestart is the persistence acceptance flow:
// a graph uploaded to a -data-dir daemon and the ordering it computed
// both outlive the process. The restarted daemon lists the graph
// without re-upload and answers the repeat job from the artifact
// store instead of recomputing.
func TestGorderdStoreSurvivesRestart(t *testing.T) {
	storeDir := t.TempDir()
	srcDir := t.TempDir()
	graphPath := filepath.Join(srcDir, "g.txt")
	run(t, "graphgen", "-type", "social", "-n", "900", "-seed", "21", "-format", "text", "-o", graphPath)
	data, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}

	submitAndWait := func(base string) map[string]any {
		t.Helper()
		body := `{"kind":"order","graph":"social900","method":"gorder","window":6}`
		code, job := httpJSON[map[string]any](t, http.MethodPost, base+"/jobs", "application/json", strings.NewReader(body))
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d (%v)", code, job)
		}
		id, _ := job["id"].(string)
		for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
			_, st := httpJSON[map[string]any](t, http.MethodGet, base+"/jobs/"+id, "", nil)
			switch st["state"] {
			case "done":
				return st
			case "failed", "canceled":
				t.Fatalf("job ended %v: %v", st["state"], st)
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal("job never finished")
		return nil
	}

	base, cmd := startGorderd(t, "-data-dir", storeDir)
	code, info := httpJSON[map[string]any](t, http.MethodPost,
		base+"/graphs?name=social900", "application/octet-stream", bytes.NewReader(data))
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d (%v)", code, info)
	}
	st1 := submitAndWait(base)
	metrics1, _ := st1["metrics"].(map[string]any)
	score1, _ := metrics1["score_F"].(float64)
	if hit, _ := metrics1["cache_hit"].(float64); hit != 0 {
		t.Fatalf("first job claims a cache hit: %v", metrics1)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gorderd exited uncleanly: %v", err)
	}

	// Restart against the same data dir: catalog and artifacts return.
	base2, cmd2 := startGorderd(t, "-data-dir", storeDir)
	code, gi := httpJSON[map[string]any](t, http.MethodGet, base2+"/graphs/social900", "", nil)
	if code != http.StatusOK {
		t.Fatalf("restarted daemon lost the graph: status %d (%v)", code, gi)
	}
	if n, _ := gi["nodes"].(float64); int(n) != 900 {
		t.Fatalf("restored graph nodes = %v, want 900", gi["nodes"])
	}
	if onDisk, _ := gi["on_disk"].(bool); !onDisk {
		t.Fatalf("restored graph not marked on_disk: %v", gi)
	}

	st2 := submitAndWait(base2)
	metrics2, _ := st2["metrics"].(map[string]any)
	if hit, _ := metrics2["cache_hit"].(float64); hit != 1 {
		t.Fatalf("repeat job not served from the store: %v", metrics2)
	}
	if score2, _ := metrics2["score_F"].(float64); score2 != score1 {
		t.Fatalf("cached score_F %v differs from original %v", metrics2["score_F"], score1)
	}
	_, snap := httpJSON[map[string]int64](t, http.MethodGet, base2+"/metrics", "", nil)
	if snap["store_hits_total"] < 1 {
		t.Fatalf("store_hits_total = %d after repeat job", snap["store_hits_total"])
	}
	if snap["ordering_runs_gorder"] != 0 {
		t.Fatalf("restarted daemon recomputed the ordering %d times", snap["ordering_runs_gorder"])
	}

	cmd2.Process.Signal(syscall.SIGTERM)
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("second gorderd exited uncleanly: %v", err)
	}
}

// TestGorderdDefaultModeUsesTempStore: without -data-dir the daemon
// still runs over a store — in a temporary directory under TMPDIR — so
// queries are served over the computed ordering and graphs accept
// edits, and a clean shutdown removes the directory.
func TestGorderdDefaultModeUsesTempStore(t *testing.T) {
	tmp := t.TempDir()
	base, cmd := startGorderdIn(t, tmp, "-manifest", "")
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 1 {
		t.Errorf("TMPDIR holds %d entries (%v), want the one temporary store", len(entries), err)
	}

	graphPath := filepath.Join(t.TempDir(), "g.txt")
	run(t, "graphgen", "-type", "social", "-n", "800", "-seed", "4", "-format", "text", "-o", graphPath)
	data, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if code, info := httpJSON[map[string]any](t, http.MethodPost,
		base+"/graphs?name=g", "application/octet-stream", bytes.NewReader(data)); code != http.StatusCreated {
		t.Fatalf("upload: status %d (%v)", code, info)
	}
	code, job := httpJSON[map[string]any](t, http.MethodPost, base+"/jobs", "application/json",
		strings.NewReader(`{"kind":"order","graph":"g","method":"gorder"}`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, job)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		_, st := httpJSON[map[string]any](t, http.MethodGet, base+"/jobs/"+job["id"].(string), "", nil)
		if st["state"] == "done" {
			break
		}
		if st["state"] == "failed" || st["state"] == "canceled" || time.Now().After(deadline) {
			t.Fatalf("order job did not finish: %v", st)
		}
	}

	code, resp := httpJSON[struct {
		Ordering struct {
			Method string `json:"method"`
		} `json:"ordering"`
	}](t, http.MethodPost, base+"/query", "application/json",
		strings.NewReader(`{"graph":"g","kernel":"BFS"}`))
	if code != http.StatusOK || resp.Ordering.Method != "gorder" {
		t.Errorf("query: status %d served over %q, want 200 over gorder", code, resp.Ordering.Method)
	}
	if code, edit := httpJSON[map[string]any](t, http.MethodPost, base+"/graphs/g/edges", "application/json",
		strings.NewReader(`{"add_nodes":1,"add":[{"from":800,"to":0}]}`)); code != http.StatusOK {
		t.Errorf("edit: status %d (%v), want 200", code, edit)
	}

	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gorderd exited uncleanly: %v", err)
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Fatalf("TMPDIR holds %d entries (%v) after a clean shutdown, want none", len(entries), err)
	}
}
