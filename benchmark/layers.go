package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/relational"
)

// layerSet accumulates the per-layer measurements of the traced rounds.
// Counts come from Stats deltas over each operation's window and from the
// OnTrace spans the operation produced; times from the benchmark's own
// clocks around calls into each layer's public functions.
type layerSet struct {
	ops     int
	updates int

	parses  int
	parseNs time.Duration

	updWall      time.Duration // public-call wall time of updates
	updSpanTotal time.Duration // their SQL spans' total time
	updStmts     int

	st         counts
	spanParse  time.Duration
	spanExec   time.Duration
	spanCommit time.Duration
	spanFsync  time.Duration
	spanRows   int64

	asrStmts int
	asrTime  time.Duration

	ouQueries  int
	ouRows     int
	ouSQL      time.Duration
	ouAssembly time.Duration

	docs        int
	reconstruct time.Duration
	serialize   time.Duration

	fsync histDelta
	batch histDelta

	reopens      int
	replayed     int
	checkpoints  int
	checkpointNs time.Duration
	dirtyFlushes int64

	gcCycles float64
	gcCPU    float64
	totalCPU float64
}

// counts is the subset of relational.Stats the per-layer metrics use.
type counts struct {
	rowsScanned, fullScans, indexProbes        int64
	planHits, planMisses, internMisses         int64
	pageReads, poolHits, poolMisses, evictions int64
}

func statsDelta(b, a relational.Stats) counts {
	return counts{
		rowsScanned:  b.RowsScanned - a.RowsScanned,
		fullScans:    b.FullScans - a.FullScans,
		indexProbes:  b.IndexProbes - a.IndexProbes,
		planHits:     b.PlanCacheHits - a.PlanCacheHits,
		planMisses:   b.PlanCacheMisses - a.PlanCacheMisses,
		internMisses: b.InternMisses - a.InternMisses,
		pageReads:    b.PageReads - a.PageReads,
		poolHits:     b.PoolHits - a.PoolHits,
		poolMisses:   b.PoolMisses - a.PoolMisses,
		evictions:    b.Evictions - a.Evictions,
	}
}

func (c *counts) add(d counts) {
	c.rowsScanned += d.rowsScanned
	c.fullScans += d.fullScans
	c.indexProbes += d.indexProbes
	c.planHits += d.planHits
	c.planMisses += d.planMisses
	c.internMisses += d.internMisses
	c.pageReads += d.pageReads
	c.poolHits += d.poolHits
	c.poolMisses += d.poolMisses
	c.evictions += d.evictions
}

func (l *layerSet) addOp(o op, out opOut, wall time.Duration, d counts, spans []*relational.QueryTrace, asrName string) {
	l.ops++
	l.st.add(d)
	if o.xq != "" {
		l.parses++
		l.parseNs += out.parse
	}
	var spanTotal time.Duration
	for _, qt := range spans {
		spanTotal += qt.Total
		l.spanParse += qt.Parse
		l.spanExec += spanExecute(qt)
		l.spanCommit += qt.Commit
		l.spanFsync += qt.FsyncWait
		l.spanRows += int64(qt.Rows)
		if asrName != "" && strings.Contains(qt.SQL, asrName) {
			l.asrStmts++
			l.asrTime += qt.Total
		}
	}
	if o.kind.isUpdate() {
		l.updates++
		l.updWall += wall
		l.updSpanTotal += spanTotal
		l.updStmts += len(spans)
	}
	if o.kind == opDoc {
		l.docs++
		l.reconstruct += out.reconstruct
		l.serialize += out.serialize
	}
}

// spanExecute is a span's executor time. Read spans (Query, QueryEach)
// record no Execute, so theirs is what remains of Total after parsing and
// the lock wait; for QueryEach that includes the caller's row callback.
func spanExecute(qt *relational.QueryTrace) time.Duration {
	if qt.Execute > 0 {
		return qt.Execute
	}
	return qt.Total - qt.Parse - qt.LockWait - qt.Commit - qt.FsyncWait - qt.IntentWait
}

// checkpoint times one explicit checkpoint of the round's final state.
// Only traced rounds take it, so the untraced rounds' reopens replay the
// whole round's log.
func (l *layerSet) checkpoint(s *engine.Store) {
	before := s.DB.Stats().DirtyFlushes
	t0 := time.Now()
	if err := s.Checkpoint(); err != nil {
		return
	}
	l.checkpointNs += time.Since(t0)
	l.checkpoints++
	l.dirtyFlushes += s.DB.Stats().DirtyFlushes - before
}

// histDelta accumulates the difference of two snapshots of one log2
// histogram, bucket by bucket, across rounds.
type histDelta struct {
	buckets map[int64]metrics.BucketCount
	count   int64
	sum     int64
}

func (h *histDelta) add(after, before metrics.HistogramSnapshot) {
	if h.buckets == nil {
		h.buckets = make(map[int64]metrics.BucketCount)
	}
	prior := make(map[int64]int64, len(before.Buckets))
	for _, b := range before.Buckets {
		prior[b.Low] = b.N
	}
	for _, b := range after.Buckets {
		if n := b.N - prior[b.Low]; n > 0 {
			acc := h.buckets[b.Low]
			acc.Low, acc.High, acc.N = b.Low, b.High, acc.N+n
			h.buckets[b.Low] = acc
		}
	}
	h.count += after.Count - before.Count
	h.sum += after.Sum - before.Sum
}

// quantile estimates the p-quantile the way metrics.HistogramSnapshot does.
func (h *histDelta) quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	snap := metrics.HistogramSnapshot{Count: h.count, Sum: h.sum}
	for _, b := range h.buckets {
		snap.Buckets = append(snap.Buckets, b)
	}
	sort.Slice(snap.Buckets, func(i, j int) bool { return snap.Buckets[i].Low < snap.Buckets[j].Low })
	snap.Min, snap.Max = snap.Buckets[0].Low, snap.Buckets[len(snap.Buckets)-1].High
	return float64(snap.Quantile(p))
}

// per divides, reading 0 where the layer did no work of that kind.
func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perLayer is one per-layer metric: its name, unit, and how it is
// computed from a layerSet.
type perLayer struct {
	name, unit string
	value      func(l *layerSet) float64
}

// perLayerMetrics lists the traced run's metrics in BENCHMARK.json order.
var perLayerMetrics = []perLayer{
	{"xquery.parse_us", "us", func(l *layerSet) float64 { return per(usOf(l.parseNs), float64(l.parses)) }},
	{"engine.self_ms_per_update", "ms", func(l *layerSet) float64 { return per(ms(l.updWall-l.updSpanTotal), float64(l.updates)) }},
	{"engine.sql_stmts_per_update", "count", func(l *layerSet) float64 { return per(float64(l.updStmts), float64(l.updates)) }},
	{"relational.plan_cache_hit_ratio", "ratio", func(l *layerSet) float64 {
		return per(float64(l.st.planHits), float64(l.st.planHits+l.st.planMisses))
	}},
	{"relational.parse_plan_us_per_miss", "us", func(l *layerSet) float64 { return per(usOf(l.spanParse), float64(l.st.planMisses)) }},
	{"relational.exec_ms_per_op", "ms", func(l *layerSet) float64 { return per(ms(l.spanExec), float64(l.ops)) }},
	{"relational.commit_us_per_update", "us", func(l *layerSet) float64 { return per(usOf(l.spanCommit), float64(l.updates)) }},
	{"relational.rows_scanned_per_op", "count", func(l *layerSet) float64 { return per(float64(l.st.rowsScanned), float64(l.ops)) }},
	{"relational.rows_scanned_per_row_out", "ratio", func(l *layerSet) float64 { return per(float64(l.st.rowsScanned), float64(l.spanRows)) }},
	{"relational.full_scans_per_op", "count", func(l *layerSet) float64 { return per(float64(l.st.fullScans), float64(l.ops)) }},
	{"relational.index_probes_per_op", "count", func(l *layerSet) float64 { return per(float64(l.st.indexProbes), float64(l.ops)) }},
	{"relational.intern_misses_per_op", "count", func(l *layerSet) float64 { return per(float64(l.st.internMisses), float64(l.ops)) }},
	{"relational.checkpoint_ms", "ms", func(l *layerSet) float64 { return per(ms(l.checkpointNs), float64(l.checkpoints)) }},
	{"wal.fsync_wait_ms_per_update", "ms", func(l *layerSet) float64 { return per(ms(l.spanFsync), float64(l.updates)) }},
	{"wal.fsync_ms_p50", "ms", func(l *layerSet) float64 { return l.fsync.quantile(0.5) / 1e6 }},
	{"wal.commits_per_fsync", "ratio", func(l *layerSet) float64 { return per(float64(l.batch.sum), float64(l.batch.count)) }},
	{"wal.replayed_commits", "count", func(l *layerSet) float64 { return per(float64(l.replayed), float64(l.reopens)) }},
	{"pager.page_reads_per_op", "count", func(l *layerSet) float64 { return per(float64(l.st.pageReads), float64(l.ops)) }},
	{"pager.pool_hit_ratio", "ratio", func(l *layerSet) float64 {
		return per(float64(l.st.poolHits), float64(l.st.poolHits+l.st.poolMisses))
	}},
	{"pager.evictions_per_op", "count", func(l *layerSet) float64 { return per(float64(l.st.evictions), float64(l.ops)) }},
	{"pager.dirty_flushes_per_checkpoint", "count", func(l *layerSet) float64 { return per(float64(l.dirtyFlushes), float64(l.checkpoints)) }},
	{"outerunion.sql_ms_per_query", "ms", func(l *layerSet) float64 { return per(ms(l.ouSQL), float64(l.ouQueries)) }},
	{"outerunion.assembly_ms_per_query", "ms", func(l *layerSet) float64 { return per(ms(l.ouAssembly), float64(l.ouQueries)) }},
	{"outerunion.rows_per_query", "count", func(l *layerSet) float64 { return per(float64(l.ouRows), float64(l.ouQueries)) }},
	{"engine.reconstruct_ms", "ms", func(l *layerSet) float64 { return per(ms(l.reconstruct), float64(l.docs)) }},
	{"xmltree.serialize_ms", "ms", func(l *layerSet) float64 { return per(ms(l.serialize), float64(l.docs)) }},
	{"asr.stmts_per_update", "count", func(l *layerSet) float64 { return per(float64(l.asrStmts), float64(l.updates)) }},
	{"asr.ms_per_update", "ms", func(l *layerSet) float64 { return per(ms(l.asrTime), float64(l.updates)) }},
	{"runtime.gc_cycles_per_op", "count", func(l *layerSet) float64 { return per(l.gcCycles, float64(l.ops)) }},
	{"runtime.gc_cpu_share", "ratio", func(l *layerSet) float64 { return per(l.gcCPU, l.totalCPU) }},
}
