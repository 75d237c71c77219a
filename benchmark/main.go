// Command benchmark runs the repository's end-to-end benchmark: seeded
// XQuery-update workloads executed by one closed-loop client through the
// engine's public API, every result checked against the DOM executor.
//
//	bash benchmark/run.sh --workload dblp-mixed --seed 1 --seconds 30 --trace 0
//
// A run repeats rounds until --seconds have passed. Each round opens a
// fresh store directory from the generated document and executes the same
// fixed operation sequence, so per-operation costs do not drift with the
// run's length. With --trace 0 the last line of standard output is a JSON
// object holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics of the traced rounds, which alternate with untraced
// ones. The line before it holds diagnostics that are not gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// dir holds the run's store directories; it is created if missing.
	dir string
	// cycles overrides the workload's cycles per round when positive.
	cycles    int
	minRounds int
	// minSetups is the fewest set-up samples setup_s is the median of;
	// runs whose rounds are too long to give that many add bare set-ups.
	minSetups int
	// plant drops one subtree from every reconstructed document before
	// the final checks, to prove they fail.
	plant bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's outcome: its result and the diagnostics beside it.
type report struct {
	result
	mismatches  []string
	diagnostics map[string]any
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "operation-stream seed")
		seconds = flag.Float64("seconds", 20, "measure for this long, in whole rounds")
		trace   = flag.Int("trace", 0, "1 runs traced rounds and prints the per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "directory for the run's stores")
		plant   = flag.Bool("plant-mismatch", false, "drop a subtree from reconstructed documents; the run must then fail")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, plant: *plant, minSetups: 7})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	diag, _ := json.Marshal(map[string]any{"diagnostics": rep.diagnostics})
	fmt.Println(string(diag))
	out, _ := json.Marshal(rep.result)
	fmt.Println(string(out))
	// No operation of any workload fails on any seed, so one that does is
	// a fault of the engine, and the run must not pass as a measurement.
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// run executes whole rounds of cfg's workload, at least cfg.minRounds of
// them, and more while another round is expected to end no more than half
// a round past cfg.seconds.
func run(cfg config) (*report, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w := cfg.w
	if cfg.cycles > 0 {
		cp := *w
		cp.cycles = cfg.cycles
		w = &cp
	}
	doc := w.doc()
	ops := w.sequence(doc, cfg.seed)
	exp, err := expect(w, doc, ops)
	if err != nil {
		return nil, fmt.Errorf("DOM oracle: %w", err)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	minRounds := cfg.minRounds
	if minRounds == 0 {
		minRounds = 3
		if cfg.trace {
			minRounds = 4
		}
	}
	r := &round{w: w, doc: doc, ops: ops, exp: exp, plant: cfg.plant}
	var plain, traced sampleSet
	var lay layerSet
	steal0 := stealSeconds()
	gc0 := readOne(newRuntimeSamples("/gc/cycles/total:gc-cycles"))
	start := time.Now()
	var last time.Duration
	for i := 0; i < minRounds || (time.Since(start)+last/2).Seconds() < cfg.seconds; i++ {
		dir := filepath.Join(work, fmt.Sprint(i))
		t0 := time.Now()
		var err error
		if cfg.trace && i%2 == 1 {
			err = r.run(dir, &traced, &lay)
		} else {
			err = r.run(dir, &plain, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		last = time.Since(t0)
	}
	for len(plain.setupCPU) < cfg.minSetups {
		if err := r.setupOnly(filepath.Join(work, "setup"), &plain); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	rep := &report{mismatches: r.mismatches}
	rep.Correct = len(r.mismatches) == 0
	rep.Attempted = (plain.rounds + traced.rounds) * len(ops)
	rep.Failed = r.failed
	diag := map[string]any{
		"workload":       w.name,
		"seed":           cfg.seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"elapsed_s":      elapsed.Seconds(),
		"ops_per_round":  len(ops),
		"attempted":      rep.Attempted,
		"failed":         rep.Failed,
		"gc_cycles":      readOne(newRuntimeSamples("/gc/cycles/total:gc-cycles")) - gc0,
		"untraced":       plain.diagnostics(),
		"pool_pages":     w.storage.PoolPages,
		"page_file_size": plain.pageFiles,
	}
	if steal0 >= 0 {
		diag["steal_s"] = stealSeconds() - steal0
	}
	if cfg.trace {
		diag["traced"] = traced.diagnostics()
		// Traced rounds checkpoint before closing, so their store size
		// and reopen cost are not comparable with the untraced rounds'.
		overhead := map[string]float64{}
		t, u := traced.endToEnd(), plain.endToEnd()
		for k, m := range t {
			if k != "store_mb" && k != "reopen_cpu_s" {
				overhead[k] = m.Value - u[k].Value
			}
		}
		diag["tracing_overhead"] = overhead
		lay.replayed, lay.reopens = plain.replayed, plain.rounds
		rep.Metrics = make(map[string]metric, len(perLayerMetrics))
		for _, m := range perLayerMetrics {
			rep.Metrics[m.name] = metric{Value: m.value(&lay), Unit: m.unit}
		}
	} else {
		rep.Metrics = plain.endToEnd()
	}
	rep.diagnostics = diag
	return rep, nil
}

// endToEnd computes the gated metrics of a set of rounds.
func (s *sampleSet) endToEnd() map[string]metric {
	ops := float64(s.ops)
	return map[string]metric{
		"setup_s":         {median(s.setupCPU), "s"},
		"cpu_ms_per_op":   {ms(s.opCPU) / ops, "ms"},
		"alloc_kb_per_op": {s.allocBytes / ops / 1024, "KiB"},
		"lookup_cpu_ms":   {median(s.cpu[opLookup]), "ms"},
		"path_cpu_ms":     {median(s.cpu[opPath]), "ms"},
		"doc_cpu_ms":      {median(s.cpu[opDoc]), "ms"},
		"reopen_cpu_s":    {median(s.reopenCPU), "s"},
		"store_mb":        {median(s.storeMB), "MiB"},
		"heap_live_mb":    {median(s.heapMB), "MiB"},
	}
}

// diagnostics reports what the gate does not read: every timing's sample
// count and tail, and the update-side figures of workloads that write.
func (s *sampleSet) diagnostics() map[string]any {
	d := map[string]any{"rounds": s.rounds, "tuples": s.tuples, "replayed_commits": s.replayed}
	for k := opKind(0); k < numKinds; k++ {
		if len(s.lat[k]) > 0 {
			d[k.String()+"_ms"] = summarize(s.lat[k])
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		if len(s.cpu[k]) > 0 {
			d[k.String()+"_cpu_ms"] = summarize(s.cpu[k])
		}
	}
	d["setup_wall_s"] = summarize(s.setup)
	d["reopen_wall_s"] = summarize(s.reopen)
	if s.ops > 0 {
		d["ops_s"] = float64(s.ops) / s.opWall.Seconds()
	}
	if s.updates > 0 && s.writeBytes >= 0 {
		d["write_kb_per_update"] = float64(s.writeBytes) / float64(s.updates) / 1024
	}
	return d
}
