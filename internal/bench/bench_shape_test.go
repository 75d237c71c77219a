package bench

import (
	"fmt"
	"strings"
	"testing"
)

// These tests run the experiments at quick scale and assert the paper's
// qualitative findings — the shapes, not the absolute numbers.

func quickCfg() Config { return Config{Runs: 2, Quick: true} }

func findSeries(t *testing.T, fig *Figure, method string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Method == method {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", fig.ID, method)
	return Series{}
}

func last(s Series) Point { return s.Points[len(s.Points)-1] }

// TestFig7Shape: on the random workload, per-tuple triggers stay flat as the
// document grows (index probes proportional to deleted content), while
// per-statement triggers scan child tables and degrade.
func TestFig7Shape(t *testing.T) {
	fig, err := RunFig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	perTuple := findSeries(t, fig, "per-tuple trigger")
	perStm := findSeries(t, fig, "per-stm trigger")
	// Flatness via the cost model: per-tuple rows scanned grow at most
	// linearly in the (constant) deleted content, so the ratio of largest
	// to smallest document stays near 1; per-statement scans whole child
	// relations and its scan count tracks document size.
	ptFirst, ptLast := perTuple.Points[0], last(perTuple)
	psFirst, psLast := perStm.Points[0], last(perStm)
	sizeRatio := float64(ptLast.Tuples) / float64(ptFirst.Tuples)
	ptGrowth := float64(ptLast.RowsScanned+1) / float64(ptFirst.RowsScanned+1)
	psGrowth := float64(psLast.RowsScanned+1) / float64(psFirst.RowsScanned+1)
	if ptGrowth > sizeRatio/1.5 {
		t.Errorf("per-tuple scan growth %.2f should stay well below size ratio %.2f", ptGrowth, sizeRatio)
	}
	if psGrowth < sizeRatio/1.5 {
		t.Errorf("per-statement scan growth %.2f should track size ratio %.2f", psGrowth, sizeRatio)
	}
	// And per-tuple beats per-statement on the largest random workload.
	if last(perTuple).Seconds >= last(perStm).Seconds {
		t.Errorf("per-tuple (%.6fs) should beat per-statement (%.6fs) on random workload",
			last(perTuple).Seconds, last(perStm).Seconds)
	}
}

// TestFig6Shape: on the bulk workload the trigger methods beat the ASR
// method (which issues more statements and maintains the ASR).
func TestFig6Shape(t *testing.T) {
	fig, err := RunFig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	asrS := findSeries(t, fig, "asr")
	perTuple := findSeries(t, fig, "per-tuple trigger")
	perStm := findSeries(t, fig, "per-stm trigger")
	// Quick-scale timings are noisy; assert with a 40% tolerance band.
	if last(asrS).Seconds < 0.6*last(perStm).Seconds {
		t.Errorf("ASR delete (%.6fs) should not beat per-statement triggers (%.6fs) on bulk workload",
			last(asrS).Seconds, last(perStm).Seconds)
	}
	// Statement counts explain it: triggers issue 1 client statement.
	if last(perTuple).Statements != 1 || last(perStm).Statements != 1 {
		t.Errorf("trigger statements = %d/%d, want 1", last(perTuple).Statements, last(perStm).Statements)
	}
	if last(asrS).Statements <= 1 {
		t.Errorf("ASR delete statements = %d, want > 1", last(asrS).Statements)
	}
}

// TestFig10Shape: the table method wins bulk inserts; the tuple method's
// statement count explodes with subtree depth.
func TestFig10Shape(t *testing.T) {
	// Extra runs, min-of-runs, a small band, and one retry of the timing
	// comparison: the table method's temp-table staging is
	// allocation-heavy, shared-machine contention occasionally slows a
	// whole measured sequence at quick scale, and the prepared-plan cache
	// narrowed the gap the paper measured against re-parsed per-tuple
	// INSERTs. The structural statement-count assertions stay strict.
	run := func() (table, tuple Point) {
		fig, err := RunFig10(Config{Runs: 4, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return last(findSeries(t, fig, "table")), last(findSeries(t, fig, "tuple"))
	}
	table, tuple := run()
	if table.MinSeconds >= 1.1*tuple.MinSeconds {
		table, tuple = run()
		if table.MinSeconds >= 1.1*tuple.MinSeconds {
			t.Errorf("table insert (%.6fs) should beat tuple insert (%.6fs) on bulk workload",
				table.MinSeconds, tuple.MinSeconds)
		}
	}
	// One INSERT per source tuple for the tuple method.
	if tuple.Statements < int64(tuple.Tuples)/2 {
		t.Errorf("tuple insert statements = %d for %d tuples", tuple.Statements, tuple.Tuples)
	}
	// Table method: statements constant per relation, independent of depth
	// growth in tuple count.
	if table.Statements >= tuple.Statements {
		t.Errorf("table insert statements (%d) should be far below tuple's (%d)",
			table.Statements, tuple.Statements)
	}
}

// TestCascadeTracksPerStatement: §7.3 found the two within ~5%; our engine
// makes the cascade issue the same deletes as client statements, so we allow
// a generous factor while asserting they stay the same order of magnitude.
// The timing comparison uses min-of-runs and one retry, like TestFig10Shape:
// at quick scale a delete takes about a millisecond, so one slowed run on a
// shared machine can move a mean past the bound. The structural assertions
// stay strict: both methods delete exactly the same rows, and the cascade
// issues more client statements.
func TestCascadeTracksPerStatement(t *testing.T) {
	run := func() (perStm, casc Series) {
		fig, err := RunCascadeComparison(Config{Runs: 4, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return findSeries(t, fig, "per-stm trigger"), findSeries(t, fig, "cascade")
	}
	diverged := func(perStm, casc Series) []string {
		var out []string
		for i := range perStm.Points {
			a, b := perStm.Points[i].MinSeconds, casc.Points[i].MinSeconds
			if b > 3*a+0.001 || a > 3*b+0.001 {
				out = append(out, fmt.Sprintf("x=%d: cascade %.6fs vs per-statement %.6fs diverge", perStm.Points[i].X, b, a))
			}
		}
		return out
	}
	perStm, casc := run()
	if len(diverged(perStm, casc)) > 0 {
		perStm, casc = run()
		for _, msg := range diverged(perStm, casc) {
			t.Error(msg)
		}
	}
	for i := range perStm.Points {
		ps, cp := perStm.Points[i], casc.Points[i]
		if ps.RowsDeleted == 0 || cp.RowsDeleted != ps.RowsDeleted {
			t.Errorf("x=%d: cascade deleted %d rows, per-statement trigger %d; want the same, nonzero",
				ps.X, cp.RowsDeleted, ps.RowsDeleted)
		}
		if cp.Statements <= ps.Statements {
			t.Errorf("x=%d: cascade statements (%d) should exceed per-statement trigger's (%d)",
				ps.X, cp.Statements, ps.Statements)
		}
	}
}

// TestTable2Shape: DBLP is bushy and the deletion touches a small fraction,
// so the per-tuple trigger wins and per-statement/cascade do poorly.
func TestTable2Shape(t *testing.T) {
	// Extra runs, min-of-runs, and one retry: quick-scale timings are
	// GC-noisy and the margins here are a few hundred microseconds (see
	// TestFig10Shape).
	run := func() map[string]float64 {
		rows, err := RunTable2(Config{Runs: 4, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		times := map[string]float64{}
		for _, r := range rows {
			times[r.Operation+"/"+r.Method] = r.MinSeconds
		}
		return times
	}
	// Quick-scale timings are noisy; assert with a tolerance band. One
	// predicate drives both the retry and the final assertions so the two
	// cannot diverge.
	const band = 1.4
	comparisons := []struct{ faster, slower, msg string }{
		{"delete/per-tuple trigger", "delete/per-stm trigger", "DBLP delete: per-tuple (%.6fs) should beat per-statement (%.6fs)"},
		{"delete/per-tuple trigger", "delete/cascade", "DBLP delete: per-tuple (%.6fs) should beat cascade (%.6fs)"},
		{"insert/table", "insert/tuple", "DBLP insert: table (%.6fs) should beat tuple (%.6fs)"},
	}
	failures := func(times map[string]float64) []string {
		var msgs []string
		for _, c := range comparisons {
			if times[c.faster] >= band*times[c.slower] {
				msgs = append(msgs, fmt.Sprintf(c.msg, times[c.faster], times[c.slower]))
			}
		}
		return msgs
	}
	msgs := failures(run())
	if len(msgs) > 0 {
		msgs = failures(run())
	}
	for _, m := range msgs {
		t.Error(m)
	}
}

// TestASRPathRuns exercises the §7.2 study end to end and checks both
// evaluation strategies return and are timed.
func TestASRPathRuns(t *testing.T) {
	pts, err := RunASRPath(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4 (fanout × path length)", len(pts))
	}
	for _, p := range pts {
		if p.Conventional <= 0 || p.ASRTime <= 0 {
			t.Errorf("untimed point %+v", p)
		}
	}
	// The ASR grows with fanout (a tuple per full path), the effect behind
	// the paper's fanout-4 slowdown.
	var f1, f4 int
	for _, p := range pts {
		if p.Fanout == 1 {
			f1 = p.ASRRows
		} else {
			f4 = p.ASRRows
		}
	}
	if f4 <= f1 {
		t.Errorf("ASR rows should grow with fanout: f1=%d f4=%d", f1, f4)
	}
}

// TestRandomizedDeleteRuns confirms the §7.1.2 replication executes and
// keeps the per-tuple trigger ahead on random workloads.
func TestRandomizedDeleteRuns(t *testing.T) {
	fig, err := RunRandomizedDelete(Config{Runs: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	perTuple := findSeries(t, fig, "per-tuple trigger")
	perStm := findSeries(t, fig, "per-stm trigger")
	if last(perTuple).Seconds >= last(perStm).Seconds {
		t.Errorf("per-tuple (%.6fs) should beat per-statement (%.6fs) on randomized docs",
			last(perTuple).Seconds, last(perStm).Seconds)
	}
}

func TestWriteFigureFormat(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "demo", XLabel: "x",
		Series: []Series{{Method: "m", Points: []Point{{X: 1, Seconds: 0.5, Statements: 2, RowsScanned: 3, Tuples: 4}}}},
	}
	var b strings.Builder
	WriteFigure(&b, fig)
	out := b.String()
	for _, frag := range []string{"figX", "method: m", "0.500000"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestConcurrentReadersShape runs the snapshot-read scenario at quick scale:
// every point must complete, report positive throughput, and observe the
// same store (the writer's transactions all roll back). The speedup column
// is not asserted — it is bounded by GOMAXPROCS, which is 1 on CI-sized
// containers.
func TestConcurrentReadersShape(t *testing.T) {
	pts, err := RunConcurrentReaders(Config{Runs: 1, Quick: true}, 2, "rollback")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Readers != 1 || pts[1].Readers != 2 {
		t.Fatalf("unexpected points: %+v", pts)
	}
	for _, p := range pts {
		if p.Seconds <= 0 || p.QueriesSec <= 0 {
			t.Errorf("degenerate point: %+v", p)
		}
		if p.Snapshots == 0 {
			t.Errorf("writer registered no snapshots: %+v", p)
		}
	}
	var b strings.Builder
	WriteConcurrentReads(&b, pts)
	if !strings.Contains(b.String(), "readers") {
		t.Errorf("output missing header:\n%s", b.String())
	}
}

// TestConcurrentReadersLiveWriterShape runs the live-commit variant: the
// writer's renumber/restore transactions all commit, so readers overlap
// genuine version chains, and the document must end at its base state.
func TestConcurrentReadersLiveWriterShape(t *testing.T) {
	pts, err := RunConcurrentReaders(Config{Runs: 1, Quick: true}, 2, "live")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("unexpected points: %+v", pts)
	}
	for _, p := range pts {
		if p.Seconds <= 0 || p.QueriesSec <= 0 {
			t.Errorf("degenerate point: %+v", p)
		}
		if p.WriterMode != "live" {
			t.Errorf("point mode %q, want live", p.WriterMode)
		}
		if p.Snapshots == 0 {
			t.Errorf("live writer registered no snapshots: %+v", p)
		}
		if p.Conflicts != 0 {
			t.Errorf("single-writer workload reported %d conflicts", p.Conflicts)
		}
	}
	var b strings.Builder
	WriteConcurrentReads(&b, pts)
	if !strings.Contains(b.String(), "live commits") {
		t.Errorf("output missing live-writer header:\n%s", b.String())
	}
}
