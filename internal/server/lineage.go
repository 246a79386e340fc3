package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"gorder/internal/core"
	"gorder/internal/graph"
	"gorder/internal/memstat"
	"gorder/internal/order"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// The mutation tier: POST /graphs/{name}/edges derives version N+1 of
// a named lineage from its tip, carries every ordering artifact of the
// old tip forward incrementally, and keeps a per-lineage quality
// record whose decay signal drives automatic repair jobs. GET
// /graphs/{name}/lineage exposes the version history and quality
// state. Version history lives in the store, so it survives restarts
// whenever the store's directory does.

// Default quality-monitor thresholds when Config leaves them zero,
// validated on evolving-graph workloads (see examples/evolvinggraph):
// below defaultDecayThreshold the suffix placed since the baseline is
// re-ordered jointly (retains ~90% of a full recompute at a fraction
// of the cost); below defaultRepairFullBelow — or after
// defaultMaxRepairs incremental repairs, or once the tracked churn
// overflows — only a full recompute restores quality.
const (
	defaultDecayThreshold  = 0.93
	defaultRepairFullBelow = 0.85
	defaultMaxRepairs      = 3
)

func (s *Server) decayThreshold() float64 {
	if s.cfg.DecayThreshold > 0 {
		return s.cfg.DecayThreshold
	}
	return defaultDecayThreshold
}

func (s *Server) repairFullBelow() float64 {
	if s.cfg.RepairFullBelow > 0 {
		return s.cfg.RepairFullBelow
	}
	return defaultRepairFullBelow
}

func (s *Server) maxRepairs() int {
	if s.cfg.MaxRepairs > 0 {
		return s.cfg.MaxRepairs
	}
	return defaultMaxRepairs
}

// edgeSpec is one directed edge in a mutation batch.
type edgeSpec struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// editRequest is the POST /graphs/{name}/edges body: vertices to
// append and edges to insert and delete. Deletes apply before adds;
// already-satisfied requests are counted, not failed, so batches
// replay idempotently.
type editRequest struct {
	AddNodes int        `json:"add_nodes,omitempty"`
	Add      []edgeSpec `json:"add,omitempty"`
	Del      []edgeSpec `json:"del,omitempty"`
}

// qualityView is the quality stanza of mutation and lineage responses.
type qualityView struct {
	Method        string  `json:"method"`
	OptKey        string  `json:"opt_key,omitempty"`
	Decay         float64 `json:"decay"`
	ScoreF        int64   `json:"score_F"`
	BaselineF     int64   `json:"baseline_F"`
	Packing       float64 `json:"packing"`
	CleanNodes    int     `json:"clean_nodes"`
	Repairs       int     `json:"repairs"`
	DirtyTracked  int     `json:"dirty_tracked"`
	DirtyOverflow bool    `json:"dirty_overflow,omitempty"`
}

func viewQuality(q store.Quality) *qualityView {
	if q.Method == "" {
		return nil
	}
	return &qualityView{
		Method: q.Method, OptKey: q.OptKey,
		Decay: q.Decay(), ScoreF: q.CurF, BaselineF: q.BaseF,
		Packing: q.CurPacking, CleanNodes: q.CleanNodes, Repairs: q.Repairs,
		DirtyTracked: len(q.Dirty), DirtyOverflow: q.DirtyOverflow,
	}
}

// editResponse is the POST /graphs/{name}/edges answer.
type editResponse struct {
	Graph          GraphInfo    `json:"graph"`
	EdgesAdded     int          `json:"edges_added"`
	EdgesDeleted   int          `json:"edges_deleted"`
	SkippedAdds    int          `json:"skipped_adds,omitempty"`
	MissedDels     int          `json:"missed_dels,omitempty"`
	OrdersExtended int          `json:"orders_extended"`
	Quality        *qualityView `json:"quality,omitempty"`
	RepairJob      string       `json:"repair_job,omitempty"`
}

// handleGraphEdges serves POST /graphs/{name}/edges: build version
// N+1 of the lineage from its tip. One mutation runs at a time
// (s.mutMu): versions form a chain, so concurrent edits and uploads
// must serialize on the tip they extend.
func (s *Server) handleGraphEdges(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	var req editRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUpload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "decoding edit batch: %v", err)
		return
	}
	// No binary upload under the same byte cap could carry more than
	// MaxUpload/8 vertices (8 offset bytes each), so neither can an edit.
	if maxNodes := s.cfg.MaxUpload / 8; req.AddNodes < 0 || int64(req.AddNodes) > maxNodes {
		s.writeError(w, http.StatusBadRequest, "bad_request", "add_nodes must be in [0, %d]", maxNodes)
		return
	}
	if req.AddNodes == 0 && len(req.Add) == 0 && len(req.Del) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty_batch", "edit batch changes nothing")
		return
	}
	add, err := toEdges(req.Add)
	if err == nil {
		var del []graph.Edge
		del, err = toEdges(req.Del)
		if err == nil {
			s.applyEdit(w, r, name, req.AddNodes, add, del)
			return
		}
	}
	s.writeError(w, http.StatusBadRequest, "bad_edge", "%v", err)
}

func toEdges(specs []edgeSpec) ([]graph.Edge, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make([]graph.Edge, len(specs))
	for i, e := range specs {
		if e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("edge %d→%d has a negative endpoint", e.From, e.To)
		}
		// NodeID is uint32: a larger endpoint would wrap in the
		// conversion below and name a different vertex.
		if uint64(e.From) > math.MaxUint32 || uint64(e.To) > math.MaxUint32 {
			return nil, fmt.Errorf("edge %d→%d has an endpoint past the 32-bit NodeID range", e.From, e.To)
		}
		out[i] = graph.Edge{From: graph.NodeID(e.From), To: graph.NodeID(e.To)}
	}
	return out, nil
}

// tipForm is the form a lineage's tip is held in, and so the graph an
// edit applies to: the query tier's relabeling of it under orders[i]
// (its base permutation maps natural IDs in), or, when i < 0, the
// natural CSR from the store.
type tipForm struct {
	g *graph.Graph
	i int
}

// carriedOrder is one ordering artifact of the old tip that an edit
// carries forward.
type carriedOrder struct {
	key  store.OrderKey
	base order.Permutation // the old tip's permutation
	perm order.Permutation // base extended to the new tip; nil if that failed
}

// applyEdit performs the serialized mutation, once, on the tip's
// resident form: validate the batch in natural IDs, extend the tip's
// orderings, apply the batch — mapped through the resident
// relabeling's permutation — with one graph.ApplyEdits, patch the
// natural blob on disk (store.PatchGraph) rather than build a natural
// CSR, carry the new relabeling and orderings to the new version
// before it becomes the tip, advance the lineage, update the quality
// record, and enqueue a repair if the decay signal crossed the
// threshold.
func (s *Server) applyEdit(w http.ResponseWriter, r *http.Request, name string, addNodes int, add, del []graph.Edge) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()

	st := s.cfg.Store
	tip, ok := st.Lookup(name)
	switch {
	case !ok:
		s.writeError(w, http.StatusNotFound, "graph_not_found",
			"no graph lineage %q; upload it first (POST /graphs?name=%s)", name, name)
		return
	case tip.Lineage != name:
		// name@vN, name@latest, or a digest: not a lineage's name.
		s.writeError(w, http.StatusBadRequest, "bad_ref",
			"mutations apply to a lineage's tip; use the bare name, not %q", name)
		return
	}
	if err := graph.CheckEdits(tip.Nodes, addNodes, add, del); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_edit", "%v", err)
		return
	}
	var orders []carriedOrder
	for _, k := range st.OrdersFor(tip.Digest) {
		if base, ok := st.GetOrder(tip.Digest, k.Method, k.OptKey, tip.Nodes); ok {
			orders = append(orders, carriedOrder{key: k, base: base})
		}
	}
	form := tipForm{i: -1}
	for i, o := range orders {
		if g, ok := s.Query.Relabeling(tip.Digest, o.key.Method, o.key.OptKey, o.base); ok {
			form = tipForm{g: g, i: i}
			break
		}
	}
	if form.i < 0 {
		g, err := st.GetGraph(tip.Digest)
		if err != nil {
			s.writeError(w, http.StatusNotFound, "graph_not_found",
				"lineage %q's tip is no longer loadable", name)
			return
		}
		form.g = g
	}
	qual, hasQual := st.GetQuality(name)
	gNew, stats := s.editForm(r.Context(), name, &form, orders, qual, hasQual, addNodes, add, del)

	digest, _, pstats, err := st.PatchGraph(tip.Digest, name, addNodes, add, del)
	if err == nil && pstats != stats {
		err = fmt.Errorf("the stored blob and the resident graph disagree (%+v vs %+v)", pstats, stats)
	}
	switch {
	case errors.Is(err, store.ErrCorrupt):
		s.writeError(w, http.StatusNotFound, "graph_not_found",
			"lineage %q's tip is no longer loadable", name)
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "advance_failed",
			"persisting version %s@v? failed: %v", name, err)
		return
	}
	// The new version gets its relabeling, hub and orderings before it
	// becomes the tip, so no query on the name meets it without them.
	if form.i >= 0 {
		o := orders[form.i]
		s.Query.CarryOrdering(digest, o.key.Method, o.key.OptKey, gNew, o.perm)
	}
	extended := 0
	for i, o := range orders {
		if o.perm == nil {
			continue
		}
		if err := st.PutOrder(digest, o.key.Method, o.key.OptKey, o.perm); err != nil {
			if i == form.i {
				s.Query.InvalidateOrdering(digest, o.key.Method, o.key.OptKey)
			}
			orders[i].perm = nil
			s.log.Warn("persisting extended ordering failed", "graph", name,
				"method", o.key.Method, "err", err)
			continue
		}
		extended++
	}
	// A relabeled tip takes no store residency: the query tier holds it.
	var admit *graph.Graph
	if form.i < 0 {
		admit = gNew
	}
	v, err := st.AppendVersion(name, digest, admit, 0)
	if err != nil {
		if digest != tip.Digest {
			s.Query.DropHub(digest)
			for _, o := range orders {
				s.Query.InvalidateOrdering(digest, o.key.Method, o.key.OptKey)
			}
		}
		s.writeError(w, http.StatusInternalServerError, "advance_failed",
			"persisting version %s@v? failed: %v", name, err)
		return
	}
	if digest != tip.Digest {
		s.Query.DropHub(tip.Digest)
		for _, o := range orders {
			s.Query.InvalidateOrdering(tip.Digest, o.key.Method, o.key.OptKey)
		}
	}
	info := s.tipInfo(name, digest, v)
	if hasQual {
		s.trackQuality(&qual, form, orders, gNew, add, del)
		if err := st.SetQuality(name, qual); err != nil {
			s.log.Warn("persisting quality record failed", "graph", name, "err", err)
		}
	}

	resp := editResponse{
		Graph:        info,
		EdgesAdded:   stats.Added,
		EdgesDeleted: stats.Deleted,
		SkippedAdds:  stats.SkippedAdds,
		MissedDels:   stats.MissedDels,

		OrdersExtended: extended,
		Quality:        viewQuality(qual),
	}
	if resp.Quality != nil && resp.Quality.Decay < s.decayThreshold() && !s.cfg.DisableAutoRepair {
		status, err := s.Pool.Submit(JobRequest{Kind: KindRepair, Graph: name})
		if err != nil {
			s.log.Warn("auto-repair submit failed", "graph", name, "err", err)
		} else {
			resp.RepairJob = status.ID
			s.log.Info("auto-repair enqueued", "graph", name, "job", status.ID,
				"decay", fmt.Sprintf("%.3f", resp.Quality.Decay))
		}
	}
	s.log.Info("graph mutated", "name", name, "version", info.Version, "id", digest,
		"nodes", info.Nodes, "edges", info.Edges,
		"added", stats.Added, "deleted", stats.Deleted, "orders_extended", extended)
	s.writeJSON(w, http.StatusOK, resp)
}

// editForm extends every ordering to the edited graph and applies the
// (validated) batch to the tip's resident form, returning the edited
// graph in that form's ID space. An edge-only batch keeps every vertex
// where its ordering put it — OrderIncrementalCtx with nothing to place
// returns the base — so it builds one CSR: the batch, mapped through
// the relabeling's permutation, applied to the relabeling. A batch
// that appends vertices must place them on the natural graph, which is
// derived for that (from the relabeling, not from disk) and dropped
// after. If the resident ordering cannot be extended, the natural
// graph becomes the form.
func (s *Server) editForm(ctx context.Context, name string, form *tipForm, orders []carriedOrder, qual store.Quality, hasQual bool, addNodes int, add, del []graph.Edge) (*graph.Graph, graph.EditStats) {
	var natOld, natNew *graph.Graph
	var natStats graph.EditStats
	if addNodes > 0 && len(orders) > 0 {
		natOld = form.g
		if form.i >= 0 {
			natOld = form.g.Relabel(orders[form.i].base.Inverse())
		}
		natNew, natStats, _ = graph.ApplyEdits(natOld, addNodes, add, del)
	}
	for i := range orders {
		o := &orders[i]
		if natNew == nil {
			o.perm = o.base
			continue
		}
		var opt core.Options
		if hasQual && qual.Method == o.key.Method && qual.OptKey == o.key.OptKey {
			ropts, w := qualityOptions(qual)
			opt = core.Options{Window: w, HubThreshold: ropts.HubThreshold}
		}
		perm, err := core.OrderIncrementalCtx(ctx, natNew, o.base, nil, opt)
		if err != nil {
			s.log.Warn("extending ordering failed", "graph", name,
				"method", o.key.Method, "err", err)
			continue
		}
		o.perm = perm
	}
	if form.i >= 0 && orders[form.i].perm == nil {
		*form = tipForm{g: natOld, i: -1} // only placing new vertices fails
	}
	if form.i < 0 && natNew != nil {
		return natNew, natStats
	}
	var perm order.Permutation
	if form.i >= 0 {
		perm = orders[form.i].perm
	}
	gNew, stats, _ := graph.ApplyEdits(form.g, addNodes, mapEdges(add, perm), mapEdges(del, perm))
	return gNew, stats
}

// trackQuality rolls the lineage's tracked F(pi) forward with
// ScoreDelta — time proportional to the batch, never a full rescore —
// and accumulates the churn the suffix repair cannot fix (edits between
// two old vertices). It scores the graphs the edit holds, in the
// form's ID space: both scores are label-invariant, so positions are
// mapped into that space instead of graphs into the natural one.
// Nothing changes when the tracked ordering was not carried.
func (s *Server) trackQuality(q *store.Quality, form tipForm, orders []carriedOrder, gNew *graph.Graph, add, del []graph.Edge) {
	var tracked *carriedOrder
	for i := range orders {
		if o := &orders[i]; o.perm != nil && o.key.Method == q.Method && o.key.OptKey == q.OptKey {
			tracked = o
		}
	}
	if tracked == nil {
		return
	}
	_, w := qualityOptions(*q)
	pos, fadd, fdel := tracked.perm, add, del
	if form.i >= 0 {
		res := orders[form.i].perm
		fadd, fdel = mapEdges(add, res), mapEdges(del, res)
		if tracked == &orders[form.i] {
			pos = nil // the form is laid out in the tracked ordering
		} else {
			seq := res.Inverse()
			pos = make(order.Permutation, len(seq))
			for x, u := range seq {
				pos[x] = tracked.perm[u]
			}
		}
	}
	q.CurF += order.ScoreDelta(form.g, gNew, pos, w, fadd, fdel)
	q.CurEdges = gNew.NumEdges()
	q.CurPacking = order.PackingFactor(gNew, pos)
	accumulateDirty(q, add, del)
}

// mapEdges maps edges through perm into a relabeling's ID space; a nil
// perm leaves them as they are.
func mapEdges(es []graph.Edge, perm order.Permutation) []graph.Edge {
	if perm == nil {
		return es
	}
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{From: perm[e.From], To: perm[e.To]}
	}
	return out
}

// accumulateDirty records the churn endpoints an incremental suffix
// repair cannot reach: endpoints of deleted edges, and of inserted
// edges between two vertices that were both already placed at the last
// baseline. New-vertex insertions are excluded — the repair re-places
// everything past CleanNodes anyway. Overflow past store.MaxDirtyTracked
// (applied by SetQuality) forces the next repair to a full recompute.
func accumulateDirty(q *store.Quality, add, del []graph.Edge) {
	clean := graph.NodeID(q.CleanNodes)
	seen := make(map[graph.NodeID]struct{}, len(q.Dirty))
	for _, v := range q.Dirty {
		seen[v] = struct{}{}
	}
	mark := func(v graph.NodeID) {
		if v < clean {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				q.Dirty = append(q.Dirty, v)
			}
		}
	}
	for _, e := range del {
		mark(e.From)
		mark(e.To)
	}
	for _, e := range add {
		if e.From < clean && e.To < clean {
			mark(e.From)
			mark(e.To)
		}
	}
}

// qualityOptions reconstructs the tracked ordering's registry options
// and effective window from the persisted record. Undecodable options
// (format drift across versions) degrade to defaults rather than fail.
func qualityOptions(q store.Quality) (registry.Options, int) {
	var ropts registry.Options
	if q.OptionsJSON != "" {
		if err := json.Unmarshal([]byte(q.OptionsJSON), &ropts); err != nil {
			ropts = registry.Options{}
		}
	}
	w := q.Window
	if w <= 0 {
		w = core.DefaultWindow
	}
	return ropts, w
}

// recordOrderingQuality seeds or re-baselines the quality record of
// every lineage whose tip is the graph just ordered. A freshly
// computed ordering is ground truth, so it re-baselines the tracked
// record (computed == true, the only path that resets decay); an
// artifact-cache hit may be a mutation-extended permutation whose
// quality has already drifted, so it only seeds lineages with no
// record yet.
func (s *Server) recordOrderingQuality(digest string, g *graph.Graph, method, optKey string, copts registry.Options, perm order.Permutation, w int, f int64, computed bool) {
	if method == "" {
		return
	}
	st := s.cfg.Store
	var packing float64
	packed := false
	for _, li := range st.Lineages() {
		if li.Versions[len(li.Versions)-1].Digest != digest {
			continue
		}
		if li.Quality != nil {
			if li.Quality.Method != method || li.Quality.OptKey != optKey {
				continue // lineage tracks a different ordering
			}
			if !computed {
				continue // never re-baseline from a possibly-extended artifact
			}
		}
		if !packed {
			packing, packed = order.PackingFactor(g, perm), true
		}
		optsJSON, _ := json.Marshal(copts)
		q := store.Quality{
			Method: method, OptKey: optKey, OptionsJSON: string(optsJSON), Window: w,
			BaseF: f, BaseEdges: g.NumEdges(), BasePacking: packing,
			CurF: f, CurEdges: g.NumEdges(), CurPacking: packing,
			CleanNodes: g.NumNodes(),
		}
		if err := st.SetQuality(li.Name, q); err != nil {
			s.log.Warn("seeding quality baseline failed", "graph", li.Name, "err", err)
			continue
		}
		s.log.Info("quality baseline recorded", "graph", li.Name, "method", method,
			"score_F", f, "nodes", g.NumNodes())
	}
}

// executeRepair runs a KindRepair job: restore the tracked ordering's
// quality on the lineage's tip. The policy, validated on evolving
// workloads: still healthy → no-op (a stale queued repair); moderate
// decay → re-place everything ordered since the baseline jointly
// (CleanNodes..n), keeping the baseline so repeated repairs cannot
// mask real decay; deep decay, overflowed churn tracking, or too many
// repairs since the last full ordering → full recompute, which is the
// only step that re-baselines. name is the lineage the job names
// (validateJob checks that it is one), and g and digest its tip.
func (s *Server) executeRepair(ctx context.Context, g *graph.Graph, name, digest string, found foundFunc) (map[string]float64, error) {
	st := s.cfg.Store
	q, ok := st.GetQuality(name)
	if !ok || q.Method == "" {
		return nil, fmt.Errorf("lineage %q has no tracked ordering; run an order job on it first", name)
	}
	decayBefore := q.Decay()
	if decayBefore >= s.decayThreshold() {
		// The decay healed between enqueue and execution (an earlier
		// repair in the queue, or a re-baselining order job).
		return map[string]float64{"noop": 1, "decay": decayBefore}, nil
	}
	ropts, w := qualityOptions(q)
	full := q.DirtyOverflow || q.Repairs >= s.maxRepairs() || decayBefore < s.repairFullBelow()
	n := g.NumNodes()
	base, haveBase := st.GetOrder(digest, q.Method, q.OptKey, n)
	if !haveBase {
		full = true // nothing to extend: the tip's artifact vanished
	}

	var perm order.Permutation
	var err error
	if full {
		var obs registry.Observation
		perm, obs, err = registry.ComputeObserved(ctx, g, q.Method, ropts)
		s.observeOrdering(obs)
	} else {
		dirty := make([]graph.NodeID, 0, n-q.CleanNodes)
		for v := q.CleanNodes; v < n; v++ {
			dirty = append(dirty, graph.NodeID(v))
		}
		perm, err = core.OrderIncrementalCtx(ctx, g, base, dirty,
			core.Options{Window: w, HubThreshold: ropts.HubThreshold})
	}
	s.gc.Collect(memstat.Repair)
	if err != nil {
		return nil, err
	}
	// Scored before anything is persisted, so a repair canceled here
	// leaves the artifact and the quality record as they were.
	f, err := order.ScoreCtx(ctx, g, perm, w)
	if err != nil {
		return nil, err
	}
	if err := st.PutOrder(digest, q.Method, q.OptKey, perm); err != nil {
		return nil, fmt.Errorf("persisting repaired ordering: %w", err)
	}
	found(perm, newOrderArtifact(digest, q.Method, q.OptKey, perm))
	s.Query.InvalidateOrdering(digest, q.Method, q.OptKey)

	q.CurF, q.CurEdges, q.CurPacking = f, g.NumEdges(), order.PackingFactor(g, perm)
	if full {
		q.BaseF, q.BaseEdges, q.BasePacking = f, q.CurEdges, q.CurPacking
		q.CleanNodes, q.Repairs = n, 0
		q.Dirty, q.DirtyOverflow = nil, false
	} else {
		q.Repairs++
	}
	if err := st.SetQuality(name, q); err != nil {
		return nil, fmt.Errorf("persisting repaired quality record: %w", err)
	}
	mode := "suffix"
	if full {
		mode = "full"
	}
	s.log.Info("lineage repaired", "graph", name, "mode", mode,
		"decay_before", fmt.Sprintf("%.3f", decayBefore),
		"decay_after", fmt.Sprintf("%.3f", q.Decay()), "score_F", f)
	metrics := map[string]float64{
		"score_F":      float64(f),
		"decay_before": decayBefore,
		"decay_after":  q.Decay(),
		"packing":      q.CurPacking,
	}
	if full {
		metrics["full_recompute"] = 1
	} else {
		metrics["repaired_vertices"] = float64(n - q.CleanNodes)
	}
	return metrics, nil
}

// ---- GET /graphs/{name}/lineage ----------------------------------------

// versionView is one entry of the lineage endpoint's history.
type versionView struct {
	Version int       `json:"version"`
	Digest  string    `json:"digest"`
	Nodes   int       `json:"nodes"`
	Edges   int64     `json:"edges"`
	Added   time.Time `json:"added"`
	Orders  int       `json:"orders"`
}

// handleGraphLineage serves GET /graphs/{name}/lineage: the version
// history and quality state of one named graph.
func (s *Server) handleGraphLineage(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	st := s.cfg.Store
	li, ok := st.Lineage(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "graph_not_found", "no graph lineage %q", name)
		return
	}
	versions := make([]versionView, len(li.Versions))
	for i, v := range li.Versions {
		versions[i] = versionView{
			Version: v.Version, Digest: v.Digest,
			Nodes: v.Nodes, Edges: v.Edges, Added: v.Added,
			Orders: len(st.OrdersFor(v.Digest)),
		}
	}
	resp := map[string]any{
		"name":     li.Name,
		"versions": versions,
	}
	if li.Quality != nil {
		resp["quality"] = viewQuality(*li.Quality)
	}
	s.writeJSON(w, http.StatusOK, resp)
}
