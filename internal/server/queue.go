package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"slices"
	"sync"
	"time"

	"gorder/internal/fair"
	"gorder/internal/order"
	"gorder/internal/store"
)

// Job states. A job moves queued → running → one of the terminal
// states; canceled covers both explicit deadlines and server shutdown.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job kinds.
const (
	KindOrder  = "order"  // compute a permutation of a registered graph
	KindEval   = "eval"   // score a permutation / run the cache simulator
	KindRepair = "repair" // re-place decayed suffix of a lineage's tracked ordering
)

// JobRequest is the client-supplied description of a job (the POST
// /jobs body). It is also what the shutdown manifest persists, so it
// must stay plain data.
type JobRequest struct {
	Kind   string `json:"kind"`             // "order" or "eval"
	Graph  string `json:"graph"`            // registered graph ID or name
	Method string `json:"method,omitempty"` // ordering name for order jobs
	Window int    `json:"window,omitempty"` // gorder window (0 = default)
	Hub    int    `json:"hub,omitempty"`    // gorder hub-skip threshold
	Seed   uint64 `json:"seed,omitempty"`   // seed for stochastic methods
	// LDGBins sets the LDG bin count (0 = the default 64).
	LDGBins int `json:"ldg_bins,omitempty"`
	// Workers bounds the worker goroutines of parallel methods
	// (0 = GOMAXPROCS). Scheduling only: it never changes the
	// permutation, so the artifact cache ignores it.
	Workers int `json:"workers,omitempty"`
	// Partitions sets the gorder-partitioned partition count
	// (0 = the default).
	Partitions int `json:"partitions,omitempty"`
	// OfJob points an eval job at a completed order job whose
	// permutation it should score; empty scores the identity ordering.
	OfJob string `json:"of_job,omitempty"`
	// Kernel, when set on an eval job, additionally runs the named
	// traced kernel (PR, BFS, ...) under the small cache hierarchy and
	// reports the miss rates.
	Kernel string `json:"kernel,omitempty"`
	// TimeoutMs bounds the job's run time; 0 uses the pool default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Tenant is the fair-queueing identity the job runs under (set from
	// the X-Tenant header by the HTTP layer; empty means the default
	// tenant). Tenants share the worker pool in weighted fair order and
	// each has its own queued-job cap.
	Tenant string `json:"tenant,omitempty"`
}

// JobStatus is the public view of a job (the GET /jobs/{id} body).
// QueueWaitMs (created → started) and DurationMs (started → finished)
// are reported separately so saturation — long waits in front of
// normal compute times — is diagnosable from outside.
type JobStatus struct {
	ID          string             `json:"id"`
	Request     JobRequest         `json:"request"`
	State       string             `json:"state"`
	Error       string             `json:"error,omitempty"`
	Created     time.Time          `json:"created"`
	Started     *time.Time         `json:"started,omitempty"`
	Finished    *time.Time         `json:"finished,omitempty"`
	QueueWaitMs int64              `json:"queue_wait_ms"`
	DurationMs  int64              `json:"duration_ms,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// job is the pool's internal record. Fields after the embedded status
// are guarded by the pool mutex; perm and art are written once by the
// worker before the state flips to done and read only afterwards.
type job struct {
	status JobStatus
	seq    int // submission order
	// perm is the job's permutation while no store artifact holds it.
	// Once one does, the job keeps only art, which names it: a finished
	// job holds no permutation bytes.
	perm order.Permutation
	art  *OrderArtifact
}

// OrderArtifact names the store artifact a job's permutation was
// persisted as, plus the CRC-32 of the permutation's encoding
// (order.Permutation.WriteTo), which tells the job's own permutation
// from a later replacement under the same key.
type OrderArtifact struct {
	Digest, Method, OptKey string
	Nodes                  int
	CRC                    uint32
}

// newOrderArtifact names perm, persisted under (digest, method, optKey).
func newOrderArtifact(digest, method, optKey string, perm order.Permutation) *OrderArtifact {
	return &OrderArtifact{Digest: digest, Method: method, OptKey: optKey, Nodes: len(perm), CRC: permCRC(perm)}
}

// permCRC is the CRC-32 (IEEE) of perm's encoding, as the store
// checksums an ordering artifact.
func permCRC(perm order.Permutation) uint32 {
	sum := crc32.NewIEEE()
	perm.WriteTo(sum) // a hash.Hash never fails a write
	return sum.Sum32()
}

// ErrQueueFull is returned by Submit when the pending queue is at its
// depth limit — the backpressure signal the API maps to HTTP 429.
var ErrQueueFull = errors.New("server: job queue full")

// ErrTenantQueueFull is returned by Submit when the submitting
// tenant's own share of the queue is exhausted while the global queue
// still has room — one tenant cannot occupy the whole queue.
var ErrTenantQueueFull = errors.New("server: tenant job queue full")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = errors.New("server: shutting down")

// maxFinishedJobs bounds the finished job records a pool keeps: past
// it, the oldest finished job is forgotten (GET /jobs/{id} answers
// 404). Queued and running jobs are never forgotten, and the queue
// depth bounds those.
const maxFinishedJobs = 1024

// PoolConfig sizes the worker pool.
type PoolConfig struct {
	Workers        int           // concurrent jobs; <= 0 means 1
	QueueDepth     int           // max pending jobs; <= 0 means 64
	DefaultTimeout time.Duration // per-job deadline when the request has none; <= 0 means 5m
	// TenantQueueDepth caps one tenant's queued (not running) jobs;
	// <= 0 means QueueDepth — no per-tenant admission cap, which keeps
	// a single-tenant deployment able to use its whole queue. Set it
	// lower (e.g. half) in multi-tenant deployments so one flooding
	// tenant leaves admission headroom for the others.
	TenantQueueDepth int
	// Weights are the fair-queueing tenant weights (nil = all equal).
	Weights fair.Weights
}

// Pool runs jobs on a fixed set of worker goroutines over a bounded
// weighted-fair queue: jobs queue per tenant and workers drain tenants
// in stride order, so tenants share throughput by weight and a tenant
// flooding its own queue cannot delay another tenant's job by more
// than one weighted round. The queue is mutex-guarded rather than a
// channel so shutdown can atomically stop intake and hand the
// still-pending requests back for manifest persistence.
type Pool struct {
	cfg  PoolConfig
	exec func(ctx context.Context, req JobRequest, found foundFunc) (map[string]float64, error)
	log  *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	pending *fair.MultiQueue[*job]
	jobs    map[string]*job
	// finished holds the IDs of the finished jobs in jobs, in the order
	// they finished; at most maxFinishedJobs.
	finished []string
	seq      int

	closed bool

	// svcMs tracks the moving average job service time; EstimatedWait
	// turns it and the queue depth into the wait forecast the admission
	// layer sheds on.
	svcMs *fair.EWMA

	submitted *Counter
	completed *Counter
	failed    *Counter
	canceled  *Counter
	rejected  *Counter
	queueWait *Counter
	depth     *Gauge
	busy      *Gauge
}

// foundFunc reports the permutation a job produced. art names the
// store artifact that holds it, or is nil when none does; the job then
// keeps art alone.
type foundFunc func(perm order.Permutation, art *OrderArtifact)

// NewPool builds a pool wired to m. exec runs one job: it receives the
// job's context and request, calls found with the permutation it
// produced (order and repair jobs), and returns the job's metrics.
// Call Start to launch the workers.
func NewPool(cfg PoolConfig, m *Metrics, logger *slog.Logger,
	exec func(ctx context.Context, req JobRequest, found foundFunc) (map[string]float64, error)) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.TenantQueueDepth <= 0 {
		cfg.TenantQueueDepth = cfg.QueueDepth
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:        cfg,
		exec:       exec,
		log:        logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		pending:    fair.NewMultiQueue[*job](cfg.Weights),
		jobs:       make(map[string]*job),
		svcMs:      fair.NewEWMA(0.2),
		submitted:  m.Counter("jobs_submitted"),
		completed:  m.Counter("jobs_completed"),
		failed:     m.Counter("jobs_failed"),
		canceled:   m.Counter("jobs_canceled"),
		rejected:   m.Counter("jobs_rejected"),
		queueWait:  m.Counter("job_queue_wait_ms_total"),
		depth:      m.Gauge("queue_depth"),
		busy:       m.Gauge("workers_busy"),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Start launches the worker goroutines.
func (p *Pool) Start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// Submit validates and enqueues a job, returning its initial status.
// The request's tenant (default when empty) decides which fair queue
// it joins; both the global depth cap and the tenant's own cap apply.
func (p *Pool) Submit(req JobRequest) (JobStatus, error) {
	if req.Kind != KindOrder && req.Kind != KindEval && req.Kind != KindRepair {
		return JobStatus{}, fmt.Errorf("unknown job kind %q", req.Kind)
	}
	if req.Tenant == "" {
		req.Tenant = fair.DefaultTenant
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.rejected.Inc()
		return JobStatus{}, ErrShuttingDown
	}
	if p.pending.Len() >= p.cfg.QueueDepth {
		p.rejected.Inc()
		return JobStatus{}, ErrQueueFull
	}
	if p.pending.TenantLen(req.Tenant) >= p.cfg.TenantQueueDepth {
		p.rejected.Inc()
		return JobStatus{}, ErrTenantQueueFull
	}
	p.seq++
	j := &job{seq: p.seq, status: JobStatus{
		ID:      fmt.Sprintf("job-%06d", p.seq),
		Request: req,
		State:   StateQueued,
		Created: time.Now().UTC(),
	}}
	p.jobs[j.status.ID] = j
	p.pending.Push(req.Tenant, j)
	p.depth.Set(int64(p.pending.Len()))
	p.submitted.Inc()
	p.cond.Signal()
	return j.status, nil
}

// EstimatedWait forecasts how long a job submitted now would sit in
// the queue: queued jobs times the average service time, divided
// across the workers. Zero until the first job completes — admission
// shedding only engages once there is evidence of how slow jobs are.
func (p *Pool) EstimatedWait() time.Duration {
	p.mu.Lock()
	depth := p.pending.Len()
	p.mu.Unlock()
	if depth == 0 {
		return 0
	}
	ms := p.svcMs.Value() * float64(depth) / float64(p.cfg.Workers)
	return time.Duration(ms * float64(time.Millisecond))
}

// Get returns a job's status snapshot.
func (p *Pool) Get(id string) (JobStatus, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshotLocked(), true
}

// Permutation returns what a job keeps of its permutation: the
// permutation itself, or the store artifact that holds it (both nil
// while it has none).
func (p *Pool) Permutation(id string) (order.Permutation, *OrderArtifact, JobStatus, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return nil, nil, JobStatus{}, false
	}
	return j.perm, j.art, j.snapshotLocked(), true
}

// List returns every job the pool keeps, in submission order.
func (p *Pool) List() []JobStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	jobs := make([]*job, 0, len(p.jobs))
	for _, j := range p.jobs {
		jobs = append(jobs, j)
	}
	slices.SortFunc(jobs, func(a, b *job) int { return a.seq - b.seq })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshotLocked()
	}
	return out
}

// finishLocked records that j reached a terminal state, forgetting the
// oldest finished job once more than maxFinishedJobs are kept.
func (p *Pool) finishLocked(j *job) {
	p.finished = append(p.finished, j.status.ID)
	if len(p.finished) > maxFinishedJobs {
		delete(p.jobs, p.finished[0])
		p.finished = p.finished[1:]
	}
}

// snapshotLocked deep-copies the mutable status parts so callers can
// serialise them outside the lock.
func (j *job) snapshotLocked() JobStatus {
	s := j.status
	if j.status.Metrics != nil {
		s.Metrics = make(map[string]float64, len(j.status.Metrics))
		for k, v := range j.status.Metrics {
			s.Metrics[k] = v
		}
	}
	return s
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.pending.Len() == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		_, j, _ := p.pending.Pop()
		p.depth.Set(int64(p.pending.Len()))
		now := time.Now().UTC()
		j.status.State = StateRunning
		j.status.Started = &now
		j.status.QueueWaitMs = now.Sub(j.status.Created).Milliseconds()
		p.queueWait.Add(j.status.QueueWaitMs)
		p.mu.Unlock()

		p.runJob(j)
	}
}

func (p *Pool) runJob(j *job) {
	p.busy.Add(1)
	defer p.busy.Add(-1)

	timeout := p.cfg.DefaultTimeout
	if j.status.Request.TimeoutMs > 0 {
		timeout = time.Duration(j.status.Request.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(p.baseCtx, timeout)
	defer cancel()

	start := time.Now()
	metrics, err := p.exec(ctx, j.status.Request, func(perm order.Permutation, art *OrderArtifact) {
		if art != nil {
			perm = nil // the artifact holds it
		}
		p.mu.Lock()
		j.perm, j.art = perm, art
		p.mu.Unlock()
	})
	elapsed := time.Since(start)
	finished := time.Now().UTC()
	p.svcMs.Observe(float64(elapsed) / float64(time.Millisecond))

	p.mu.Lock()
	j.status.Finished = &finished
	j.status.DurationMs = elapsed.Milliseconds()
	j.status.Metrics = metrics
	switch {
	case err == nil:
		j.status.State = StateDone
		p.completed.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status.State = StateCanceled
		j.status.Error = err.Error()
		p.canceled.Inc()
	default:
		j.status.State = StateFailed
		j.status.Error = err.Error()
		p.failed.Inc()
	}
	state := j.status.State
	p.finishLocked(j)
	p.mu.Unlock()

	p.log.Info("job finished",
		"job", j.status.ID, "kind", j.status.Request.Kind,
		"graph", j.status.Request.Graph, "method", j.status.Request.Method,
		"state", state, "duration", elapsed.Round(time.Millisecond))
}

// Shutdown drains the pool: intake stops immediately, workers finish
// their in-flight jobs (canceled via the base context once ctx
// expires), and the still-queued requests are returned for manifest
// persistence. Queued jobs are marked canceled so pollers see a
// terminal state.
func (p *Pool) Shutdown(ctx context.Context) []JobRequest {
	p.mu.Lock()
	p.closed = true
	now := time.Now().UTC()
	var drained []*job
	for {
		_, j, ok := p.pending.Pop()
		if !ok {
			break
		}
		j.status.State = StateCanceled
		j.status.Error = "server shut down before the job started"
		j.status.Finished = &now
		p.canceled.Inc()
		p.finishLocked(j)
		drained = append(drained, j)
	}
	// The fair queue drains in stride order; the manifest should replay
	// in submission order.
	slices.SortFunc(drained, func(a, b *job) int { return a.seq - b.seq })
	var queued []JobRequest
	for _, j := range drained {
		queued = append(queued, j.status.Request)
	}
	p.depth.Set(0)
	p.cond.Broadcast()
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline hit: cancel in-flight jobs and wait for the
		// workers to notice.
		p.baseCancel()
		<-done
	}
	p.baseCancel()
	return queued
}

// manifest is the on-disk shape of the queued-job manifest gorderd
// writes on shutdown and replays on the next start.
type manifest struct {
	SavedAt time.Time    `json:"saved_at"`
	Jobs    []JobRequest `json:"jobs"`
}

// WriteManifest persists the given queued-job requests to path,
// atomically (temp file + fsync + rename via store.WriteFileAtomic,
// so a crash mid-write never leaves a torn manifest). An empty list
// removes any stale manifest instead.
func WriteManifest(path string, reqs []JobRequest) error {
	if len(reqs) == 0 {
		err := os.Remove(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	data, err := json.MarshalIndent(manifest{SavedAt: time.Now().UTC(), Jobs: reqs}, "", "  ")
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ReadManifest loads a manifest written by WriteManifest. A missing
// file is an empty manifest, not an error.
func ReadManifest(path string) ([]JobRequest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("server: corrupt job manifest %s: %w", path, err)
	}
	return m.Jobs, nil
}
