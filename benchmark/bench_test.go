package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// short runs one round of two cycles: enough to execute every operation
// kind of a workload once and check it against the DOM executor.
func short(t *testing.T, w *workload, mod func(*config)) *report {
	t.Helper()
	cfg := config{w: w, seed: 3, dir: t.TempDir(), cycles: 2, minRounds: 1, minSetups: 1}
	if mod != nil {
		mod(&cfg)
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return rep
}

func TestSequenceIsSeeded(t *testing.T) {
	for _, w := range workloads {
		doc := w.doc()
		a, b := w.sequence(doc, 7), w.sequence(doc, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different operation streams", w.name)
		}
		if reflect.DeepEqual(a, w.sequence(doc, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation stream", w.name)
		}
		if want := w.cycles*len(w.cycle) + w.cycles/w.docEvery; len(a) != want {
			t.Errorf("%s: %d operations, want %d", w.name, len(a), want)
		}
	}
}

func TestShortRunsPassTheOracle(t *testing.T) {
	for _, w := range workloads {
		rep := short(t, w, nil)
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d mismatches=%v", w.name, rep.Correct, rep.Failed, rep.mismatches)
		}
	}
}

func TestPlantedMismatchFails(t *testing.T) {
	rep := short(t, findWorkload("dblp-mixed"), func(c *config) { c.plant = true })
	if rep.Correct {
		t.Fatal("a document missing a subtree passed the check")
	}
	if len(rep.mismatches) != 2 || !strings.Contains(rep.mismatches[0], "after the loop") ||
		!strings.Contains(rep.mismatches[1], "after reopen") {
		t.Errorf("mismatches = %q, want one after the loop and one after reopen", rep.mismatches)
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json declares, with their units: the end-to-end ones
// untraced, the per-layer ones traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	w := findWorkload("deep-asr-paged")
	check := func(got map[string]metric, want []struct{ Name, Unit string }, what string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			if !ok || g.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", what, m.Name, g, m.Unit)
			}
		}
	}
	check(short(t, w, nil).Metrics, spec.EndToEnd, "untraced")
	traced := short(t, w, func(c *config) { c.trace, c.minRounds, c.cycles = true, 2, 1 })
	check(traced.Metrics, spec.PerLayer, "traced")
	for _, name := range []string{"engine.sql_stmts_per_update", "relational.rows_scanned_per_op", "pager.page_reads_per_op", "asr.stmts_per_update"} {
		if traced.Metrics[name].Value == 0 {
			t.Errorf("traced deep-asr-paged: %s is 0", name)
		}
	}
}
