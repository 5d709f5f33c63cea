package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"leapsandbounds/internal/workloads"
)

// smallConfig runs a workload at its smallest: Test class programs and
// a half-second window.
func smallConfig(traced bool) runConfig {
	ys, err := newYardstick()
	if err != nil {
		panic(err)
	}
	cfg := runConfig{seed: 7, duration: 500 * time.Millisecond, class: workloads.Test, ys: ys}
	if traced {
		cfg.tr = newTracer()
	}
	return cfg
}

// countMetrics are the counts a traced run takes twice; each must
// repeat exactly.
var countMetrics = []string{
	"rir.ops_out_ratio", "rir.fused", "compiled.checks_elided_ratio",
	"compiled.ops_per_invoke", "tiered.ops_per_invoke", "interp.ops_per_invoke",
	"wasi.hostcalls_per_invoke",
}

func TestSmokeEveryWorkload(t *testing.T) {
	for name, run := range runners {
		for _, traced := range []bool{false, true} {
			res, err := run(smallConfig(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", name, traced, res.attempted, res.failed, res.report)
			}
			if traced {
				for _, k := range countMetrics {
					if _, ok := res.layer[k]; !ok && !notApplicable(name, k) {
						t.Errorf("%s: count %s missing (did not repeat?): %v", name, k, res.report)
					}
				}
				continue
			}
			for _, m := range endToEnd {
				if res.e2e[m.name] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m.name, res.e2e[m.name])
				}
			}
		}
	}
}

// notApplicable reports counts a workload has nothing to count for:
// serve and shared-grow run wavm only, and make no hostcalls.
func notApplicable(workload, count string) bool {
	switch count {
	case "tiered.ops_per_invoke", "interp.ops_per_invoke", "wasi.hostcalls_per_invoke":
		return workload != "kernels"
	}
	return false
}

// A wrong output is counted as a failed operation; the run goes on and
// nothing is retried.
func TestWrongChecksumCountsAsFailure(t *testing.T) {
	for name, corrupt := range map[string]string{"kernels": "gemm", "serve": "gemm", "shared-grow": "shared-grow"} {
		cfg := smallConfig(false)
		cfg.corrupt = corrupt
		res, err := runners[name](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed == 0 || res.failed >= res.attempted && name != "shared-grow" {
			t.Errorf("%s: failed %d of %d, want some but not all", name, res.failed, res.attempted)
		}
		if s := summary(res, false); s.Correct || s.Failed != res.failed || s.Attempted != res.attempted {
			t.Errorf("%s: summary %+v does not report the failures", name, s)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, declared []struct{ Name, Unit string }, ours []metric) {
		if len(declared) != len(ours) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(ours))
			return
		}
		for i, m := range ours {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(runners) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(runners))
	}
	res := newResult()
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		got := summary(res, traced).Metrics
		if len(got) != len(want) {
			t.Errorf("traced=%v: printed %d metrics, want %d", traced, len(got), len(want))
		}
		for _, m := range want {
			if got[m.name].Unit != m.unit {
				t.Errorf("traced=%v: %s printed with unit %q", traced, m.name, got[m.name].Unit)
			}
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"root": 100 - 40 - 10, "a": 25, "b": 20, "c": 30, "d": 5} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
}
