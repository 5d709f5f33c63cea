// Command perfbench is the repository's benchmark. It runs one
// workload for a fixed time, checks every operation's output against
// an independent reference, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run wraps its calls into each layer in spans and prints the
// per-layer ones instead. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"leapsandbounds/internal/workloads"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 15

// setupTimer collects a run's set-up times, each scaled to the nominal
// host speed by a yardstick reading taken just before it.
type setupTimer struct {
	ys       *yardstick
	raw, cal []float64
	f        float64
	t0       time.Time
}

// start reads the yardstick and starts the clock.
func (s *setupTimer) start() {
	s.f = s.ys.factor()
	s.t0 = time.Now()
}

func (s *setupTimer) stop() {
	d := time.Since(s.t0).Seconds()
	s.raw = append(s.raw, d)
	s.cal = append(s.cal, d*s.f)
}

// report sets setup_s and notes the raw median.
func (s *setupTimer) report(res *result) {
	res.e2e["setup_s"] = median(s.cal)
	res.notef("setup: raw median %.6g s over %d set-ups, scaled to nominal host speed %.6g s", median(s.raw), len(s.raw), median(s.cal))
}

// runConfig is one run's parameters.
type runConfig struct {
	seed     int64
	duration time.Duration
	// tr is nil for untraced runs.
	tr *tracer
	// ys scales set-up times to a nominal host speed.
	ys *yardstick
	// class sizes the kernels and shared-grow programs (Bench; the
	// tests use Test). serve always runs the Test class corpus.
	class workloads.Class
	// corrupt names a program whose expected checksum is flipped, so
	// the tests can check that a wrong output counts as a failure.
	corrupt string
}

var runners = map[string]func(runConfig) (*result, error){
	"kernels":     runKernels,
	"serve":       runServe,
	"shared-grow": runSharedGrow,
}

func main() {
	workload := flag.String("workload", "", "workload: kernels, serve or shared-grow")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", "", "directory for the run record and spans (empty: none)")
	flag.Parse()
	run, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload kernels|serve|shared-grow, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	ys, err := newYardstick()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), class: workloads.Bench, ys: ys}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	prov := readProvenance()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res.layer["runtime.peak_rss_mb"] = procStatusMiB("VmHWM")
	res.layer["env.yardstick_us"] = ys.medianUs()
	if err := writeRecord(*out, *workload, cfg, prov, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printReport(os.Stdout, *workload, cfg, prov, res)
	line, err := json.Marshal(summary(res, cfg.tr != nil))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary is the JSON line: end-to-end metrics, or per-layer ones for
// a traced run.
func summary(res *result, traced bool) summaryLine {
	s := summaryLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	list, src := endToEnd, res.e2e
	if traced {
		list, src = perLayer, res.layer
	}
	for _, m := range list {
		s.Metrics[m.name] = value{src[m.name], m.unit}
	}
	return s
}

func failedRatio(res *result) float64 {
	if res.attempted == 0 {
		return 0
	}
	return float64(res.failed) / float64(res.attempted)
}

// printReport writes the human-readable lines that precede the JSON
// line: provenance, every metric the run measured, and notes.
func printReport(w *os.File, workload string, cfg runConfig, p provenance, res *result) {
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%v\n", workload, cfg.seed, cfg.duration.Seconds(), cfg.tr != nil)
	fmt.Fprintf(w, "# git=%s go=%s arch=%s nproc=%d numcpu=%d gomaxprocs=%d\n",
		p.GitSHA, p.GoVersion, p.GOARCH, p.NProc, p.NumCPU, p.GOMAXPROCS)
	fmt.Fprintf(w, "# attempted=%d failed=%d failed_ratio=%g\n", res.attempted, res.failed, failedRatio(res))
	units := map[string]string{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	for _, src := range []map[string]float64{res.e2e, res.layer} {
		keys := make([]string, 0, len(src))
		for k := range src {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "# %-32s %14.6g %s\n", k, src[k], units[k])
		}
	}
	for _, n := range res.report {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// writeRecord stores the run's provenance and every measured value,
// and the spans of a traced run, under dir.
func writeRecord(dir, workload string, cfg runConfig, p provenance, res *result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record dir: %w", err)
	}
	traced := 0
	if cfg.tr != nil {
		traced = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", workload, cfg.seed, traced)
	if err := cfg.tr.write(filepath.Join(dir, base+".spans.jsonl")); err != nil {
		return err
	}
	rec := map[string]any{
		"workload": workload, "seed": cfg.seed, "seconds": cfg.duration.Seconds(),
		"traced": cfg.tr != nil, "provenance": p,
		"attempted": res.attempted, "failed": res.failed,
		"end_to_end": res.e2e, "per_layer": res.layer, "notes": res.report,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644)
}
