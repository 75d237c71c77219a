package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/outerunion"
	"repro/internal/relational"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// sampleSet accumulates the end-to-end measurements of a set of rounds.
type sampleSet struct {
	rounds     int
	lat        [numKinds][]float64 // ms per operation
	cpu        [numKinds][]float64 // process CPU ms per operation
	setupCPU   []float64           // s
	reopenCPU  []float64           // s
	ops        int
	updates    int
	opWall     time.Duration
	opCPU      time.Duration
	allocBytes float64
	writeBytes int64
	setup      []float64 // s
	reopen     []float64 // s
	storeMB    []float64
	heapMB     []float64
	pageFiles  int64 // bytes of *.pages files after the first round's close
	replayed   int   // log commits the reopens replayed
	tuples     int   // data tuples of the freshly set-up store
}

// round is one fresh-store execution of a workload's operation sequence.
type round struct {
	w     *workload
	doc   *xmltree.Document
	ops   []op
	exp   *expectation
	plant bool

	failed     int
	mismatches []string
}

var (
	allocSample = newRuntimeSamples("/gc/heap/allocs:bytes")
	heapSample  = newRuntimeSamples("/gc/heap/live:bytes")
)

func readOne(s runtimeSamples) float64 {
	v := make([]float64, 1)
	s.read(v)
	return v[0]
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	return readOne(heapSample)
}

func (r *round) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// opOut is an operation's output and, for tracing, its split timings.
type opOut struct {
	elems       []*xmltree.Element
	doc         string
	parse       time.Duration
	reconstruct time.Duration
	serialize   time.Duration
}

// session is an open store plus what the copy operation needs to address
// its source and destination.
type session struct {
	s      *engine.Store
	rootID int64
	k1Col  string
}

func openSession(dir string, doc *xmltree.Document, w *workload) (*session, error) {
	s, err := engine.OpenDir(dir, doc, w.engine, w.storage)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ss := &session{s: s}
	if c := s.M.FindColumn("e1", []string{"k1"}, ""); c != nil {
		rows, err := s.DB.Query("SELECT id FROM " + s.M.Table(s.M.Root).Name)
		if err != nil || len(rows.Data) != 1 {
			s.Close()
			return nil, fmt.Errorf("root id: %v", err)
		}
		ss.rootID = rows.Data[0][0].MustInt()
		ss.k1Col = c.Name
	}
	return ss, nil
}

// exec runs one operation through the engine's public API.
func (ss *session) exec(o op) (opOut, error) {
	var out opOut
	switch o.kind {
	case opCopy:
		where := ss.k1Col + " = " + relational.FormatValue(relational.Text(o.key))
		n, err := ss.s.CopySubtrees("e1", where, ss.rootID)
		if err == nil && n == 0 {
			err = fmt.Errorf("copy of k1 %q copied nothing", o.key)
		}
		return out, err
	case opDoc:
		t0 := time.Now()
		d, err := ss.s.Reconstruct()
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		out.doc = d.String()
		out.reconstruct, out.serialize = t1.Sub(t0), time.Since(t1)
		return out, nil
	}
	t0 := time.Now()
	stmt, err := xquery.Parse(o.xq)
	out.parse = time.Since(t0)
	if err != nil {
		return out, err
	}
	if o.kind.isUpdate() {
		_, err = ss.s.Exec(stmt)
		return out, err
	}
	out.elems, err = ss.s.QuerySubtrees(stmt)
	return out, err
}

// run executes the round in dir and adds its measurements to set, and to
// lay when the round is traced.
func (r *round) run(dir string, set *sampleSet, lay *layerSet) error {
	heap0 := liveHeap()
	ss, err := set.timeSetup(dir, r)
	if err != nil {
		return err
	}
	s := ss.s
	if set.tuples == 0 {
		set.tuples = s.TupleCount()
	}
	var tr *tracer
	if lay != nil {
		tr = newTracer(s)
		defer tr.stop()
	}

	allocs := make([]float64, 1)
	wchar0 := procIOWchar()
	for i, o := range r.ops {
		if tr != nil {
			tr.begin()
		}
		allocSample.read(allocs)
		a0, c0, t0 := allocs[0], cpuTime(), time.Now()
		out, err := ss.exec(o)
		wall := time.Since(t0)
		c1 := cpuTime()
		allocSample.read(allocs)
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "op %d (%v) failed: %v\n", i, o.kind, err)
			continue
		}
		set.lat[o.kind] = append(set.lat[o.kind], ms(wall))
		set.cpu[o.kind] = append(set.cpu[o.kind], ms(c1-c0))
		set.ops++
		if o.kind.isUpdate() {
			set.updates++
		}
		set.opWall += wall
		set.opCPU += c1 - c0
		set.allocBytes += allocs[0] - a0
		if tr != nil {
			tr.end(lay, o, out, wall)
		}
		switch o.kind {
		case opDoc:
			if digestString(out.doc) != r.exp.digests[i] {
				r.mismatch("op %d (doc): reconstructed document differs from the DOM executor's", i)
			}
		case opLookup, opPath:
			if digestSubtrees(out.elems) != r.exp.digests[i] {
				r.mismatch("op %d (%v): %d subtrees differ from the DOM executor's result for %s", i, o.kind, len(out.elems), o.xq)
			}
		}
	}
	set.writeBytes += procIOWchar() - wchar0
	set.heapMB = append(set.heapMB, mib(liveHeap()-heap0))
	if tr != nil {
		tr.finish(lay)
		lay.checkpoint(s)
	}
	set.rounds++

	r.checkDoc(s, "after the loop")
	if err := s.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	set.storeMB = append(set.storeMB, mib(float64(size)))
	if set.pageFiles == 0 {
		set.pageFiles = pageFileBytes(dir)
	}

	c0, t0 := cpuTime(), time.Now()
	ss, err = openSession(dir, nil, r.w)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	set.reopen = append(set.reopen, time.Since(t0).Seconds())
	set.reopenCPU = append(set.reopenCPU, (cpuTime() - c0).Seconds())
	set.replayed += ss.s.DB.RecoveredCommits()
	r.checkDoc(ss.s, "after reopen")
	if err := ss.s.Close(); err != nil {
		return fmt.Errorf("close after reopen: %w", err)
	}
	return os.RemoveAll(dir)
}

// timeSetup opens a fresh store of the round's document in dir, recording
// the wall and process CPU time it took.
func (set *sampleSet) timeSetup(dir string, r *round) (*session, error) {
	c0, t0 := cpuTime(), time.Now()
	ss, err := openSession(dir, r.doc, r.w)
	if err != nil {
		return nil, err
	}
	set.setup = append(set.setup, time.Since(t0).Seconds())
	set.setupCPU = append(set.setupCPU, (cpuTime() - c0).Seconds())
	return ss, nil
}

// setupOnly times one more set-up of a fresh store, then discards it.
func (r *round) setupOnly(dir string, set *sampleSet) error {
	runtime.GC()
	ss, err := set.timeSetup(dir, r)
	if err != nil {
		return err
	}
	if err := ss.s.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return os.RemoveAll(dir)
}

// checkDoc compares the store's reconstructed document with the DOM
// executor's, byte for byte.
func (r *round) checkDoc(s *engine.Store, when string) {
	d, err := s.Reconstruct()
	if err != nil {
		r.mismatch("reconstruct %s: %v", when, err)
		return
	}
	if r.plant {
		dropLastSubtree(d)
	}
	if got := d.String(); got != r.exp.final {
		r.mismatch("document %s differs from the DOM executor's (%d vs %d bytes)", when, len(got), len(r.exp.final))
	}
}

func pageFileBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pages") {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

// tracer collects the spans and counters of one traced round from outside
// the engine: an OnTrace hook, Stats and Metrics snapshots, and runtime
// metrics.
type tracer struct {
	s       *engine.Store
	asrName string
	cancel  func()
	plans   map[string]*outerunion.Plan

	mu    sync.Mutex
	spans []*relational.QueryTrace
	// queries are the round's Sorted Outer Union statements, in order.
	queries []souQuery

	st0  relational.Stats
	met0 metrics.Snapshot
	rt0  []float64
	rt   runtimeSamples
}

// souQuery is one Sorted Outer Union statement a query ran, and the
// element its subtrees are rooted at.
type souQuery struct {
	sql, returns string
}

func newTracer(s *engine.Store) *tracer {
	t := &tracer{
		s:     s,
		plans: make(map[string]*outerunion.Plan),
		met0:  s.Metrics(),
		rt:    newRuntimeSamples("/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"),
	}
	if s.ASR != nil {
		t.asrName = s.ASR.Name
	}
	t.rt0 = make([]float64, len(t.rt))
	t.rt.read(t.rt0)
	t.cancel = s.OnTrace(func(qt *relational.QueryTrace) {
		t.mu.Lock()
		t.spans = append(t.spans, qt)
		t.mu.Unlock()
	})
	return t
}

func (t *tracer) stop() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}

func (t *tracer) begin() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.st0 = t.s.DB.Stats()
}

// end folds one operation's spans and counter deltas into lay. For a query
// it keeps the Sorted Outer Union statement the engine ran, for finish to
// replay once the round's loop is over.
func (t *tracer) end(lay *layerSet, o op, out opOut, wall time.Duration) {
	st := t.s.DB.Stats()
	t.mu.Lock()
	spans := append([]*relational.QueryTrace(nil), t.spans...)
	t.mu.Unlock()
	lay.addOp(o, out, wall, statsDelta(st, t.st0), spans, t.asrName)
	if o.kind != opLookup && o.kind != opPath {
		return
	}
	for _, qt := range spans {
		if qt.Kind == "query-each" {
			t.queries = append(t.queries, souQuery{sql: qt.SQL, returns: o.returns})
		}
	}
}

// replay re-executes the round's Sorted Outer Union statements through
// DB.Query and outerunion.Plan.Reconstruct, timing the SQL and the XML
// assembly apart. The engine streams the same statement through QueryEach
// and assembles as rows arrive, so the two halves cannot be told apart in
// its own call. The replay runs after the loop, on the pool as the loop
// left it, so that its page reads change nothing an operation sees.
func (t *tracer) replay(lay *layerSet) {
	for _, q := range t.queries {
		t0 := time.Now()
		rows, err := t.s.DB.Query(q.sql)
		if err != nil {
			continue
		}
		sqlTime := time.Since(t0)
		plan, err := t.plan(q.returns)
		if err != nil {
			continue
		}
		t1 := time.Now()
		if _, err := plan.Reconstruct(rows); err != nil {
			continue
		}
		lay.ouSQL += sqlTime
		lay.ouAssembly += time.Since(t1)
		lay.ouRows += len(rows.Data)
		lay.ouQueries++
	}
}

// plan returns the outer-union plan for the element a query returns.
func (t *tracer) plan(target string) (*outerunion.Plan, error) {
	if p, ok := t.plans[target]; ok {
		return p, nil
	}
	p, err := outerunion.BuildPlan(t.s.M, target)
	if err != nil {
		return nil, err
	}
	t.plans[target] = p
	return p, nil
}

// finish folds the round's log and runtime counters into lay, then
// replays the round's queries.
func (t *tracer) finish(lay *layerSet) {
	rt1 := make([]float64, len(t.rt))
	t.rt.read(rt1)
	lay.gcCycles += rt1[0] - t.rt0[0]
	lay.gcCPU += rt1[1] - t.rt0[1]
	lay.totalCPU += rt1[2] - t.rt0[2]
	met1 := t.s.Metrics()
	lay.fsync.add(met1.Histograms["wal_fsync_ns"], t.met0.Histograms["wal_fsync_ns"])
	lay.batch.add(met1.Histograms["wal_batch_commits"], t.met0.Histograms["wal_batch_commits"])
	t.stop()
	t.replay(lay)
}
