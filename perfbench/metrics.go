package main

import (
	"fmt"
	"math"
	"sort"

	"leapsandbounds/internal/mem"
)

// metric is one printed quantity. The lists below must match the
// end_to_end and per_layer lists of BENCHMARK.json (the tests check).
type metric struct{ name, unit string }

// endToEnd metrics come from untraced runs; every workload prints all
// of them (see README.md for what each means per workload). Absolute
// execution and ready times drift with the host by up to 2x between
// runs, so they are per-layer metrics; these are the steady ones.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"retained_rss_mb", "MiB"},
	{"exec_rel.clamp", "ratio"},
	{"exec_rel.trap", "ratio"},
	{"exec_rel.mprotect", "ratio"},
	{"exec_rel.uffd", "ratio"},
}

// perLayer metrics come from traced runs, named <module>.<quantity>.
// A layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"wasm.decode_us", "us"},
	{"validate.module_us", "us"},
	{"flatten.module_us", "us"},
	{"rir.build_us", "us"},
	{"rir.optimize_us", "us"},
	{"rir.lower_us", "us"},
	{"rir.fusemem_us", "us"},
	{"rir.ops_out_ratio", "ratio"},
	{"rir.fused", "count"},
	{"compiled.compile_us", "us"},
	{"compiled.emit_us", "us"},
	{"compiled.checks_elided_ratio", "ratio"},
	{"compiled.invoke_ms", "ms"},
	{"tiered.invoke_ms", "ms"},
	{"interp.invoke_ms", "ms"},
	{"wasi.invoke_ms", "ms"},
	{"compiled.ops_per_invoke", "count"},
	{"tiered.ops_per_invoke", "count"},
	{"interp.ops_per_invoke", "count"},
	{"tiered.ready_ms", "ms"},
	{"wasi.hostcalls_per_invoke", "count"},
	{"modcache.lookup_us", "us"},
	{"modcache.hit_ratio", "ratio"},
	{"core.ready_us.p50", "us"},
	{"core.instantiate_us", "us"},
	{"core.instantiate_us.none", "us"},
	{"core.instantiate_us.clamp", "us"},
	{"core.instantiate_us.trap", "us"},
	{"core.instantiate_us.mprotect", "us"},
	{"core.instantiate_us.uffd", "us"},
	{"core.fork_us", "us"},
	{"core.fork_us.none", "us"},
	{"core.fork_us.clamp", "us"},
	{"core.fork_us.trap", "us"},
	{"core.fork_us.mprotect", "us"},
	{"core.fork_us.uffd", "us"},
	{"core.close_us", "us"},
	{"core.template_ms", "ms"},
	{"vmm.mmap_per_op", "count"},
	{"vmm.mprotect_per_op", "count"},
	{"vmm.minor_faults_per_op", "count"},
	{"vmm.uffd_faults_per_op", "count"},
	{"vmm.segv_faults_per_op", "count"},
	{"vmm.shootdowns_per_op", "count"},
	{"vmm.cow_pages_per_op", "count"},
	{"vmm.lock_contended_per_op", "count"},
	{"vmm.lock_wait_us_per_op", "us"},
	{"mem.exec_ms", "ms"},
	{"mem.exec_ms.none", "ms"},
	{"mem.exec_ms.clamp", "ms"},
	{"mem.exec_ms.trap", "ms"},
	{"mem.exec_ms.mprotect", "ms"},
	{"mem.exec_ms.uffd", "ms"},
	{"mem.grow_us.p99", "us"},
	{"mem.grow_stall_ms.p99", "ms"},
	{"mem.clean_ms.p99", "ms"},
	{"mem.stalled_share", "ratio"},
	{"harness.gen_late_us.p99", "us"},
	{"harness.queue_us.p99", "us"},
	{"harness.busy_share", "ratio"},
	{"serve.ready_us.cold.p50", "us"},
	{"serve.ready_us.cold.p99", "us"},
	{"serve.ready_us.warm.p50", "us"},
	{"serve.ready_us.warm.p99", "us"},
	{"serve.ready_us.fork.p50", "us"},
	{"serve.ready_us.fork.p99", "us"},
	{"shared.invoke_ms.p50", "ms"},
	{"shared.invoke_ms.p99", "ms"},
	{"runtime.peak_rss_mb", "MiB"},
	{"runtime.live_heap_mb", "MiB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.sched_latency_us.p99", "us"},
	{"env.steal_pct", "%"},
	{"env.iowait_pct", "%"},
	{"env.yardstick_us", "us"},
	{"obs.trace_overhead_pct", "%"},
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// report holds human-readable lines printed before the JSON line:
	// sample counts, the workload's own headline metrics, notes.
	report []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) notef(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// execSamples holds invoke times in ms by strategy and group (what
// ran: program and engine).
type execSamples map[mem.Strategy]map[string][]float64

func (e execSamples) add(st mem.Strategy, group string, ms float64) {
	if e[st] == nil {
		e[st] = map[string][]float64{}
	}
	e[st][group] = append(e[st][group], ms)
}

// rels holds exec_rel samples by strategy and group.
type rels map[mem.Strategy]map[string][]float64

func (r rels) add(st mem.Strategy, group string, x float64) {
	if r[st] == nil {
		r[st] = map[string][]float64{}
	}
	r[st][group] = append(r[st][group], x)
}

// medianRels gives each group one sample per strategy: the strategy's
// median time over none's median for the same group. The two ran
// interleaved in one run, so the host's drift over the run cancels.
func medianRels(e execSamples) rels {
	r := rels{}
	for st, groups := range e {
		if st == mem.None {
			continue
		}
		for g, xs := range groups {
			if none, ok := e[mem.None][g]; ok {
				r.add(st, g, median(xs)/median(none))
			}
		}
	}
	return r
}

// execOp is one timed operation, for pairedRels; ms is 0 if it failed.
type execOp struct {
	strategy mem.Strategy
	group    string
	ms       float64
}

// pairedRels divides each operation of a checked strategy by the
// geometric mean of the none operations of its group right before and
// after it in ops, which is in run order. The host's speed changes by
// up to 2x within a second, so only neighbours in time share it.
func pairedRels(ops []execOp) rels {
	r := rels{}
	for i := 1; i+1 < len(ops); i++ {
		b, c, a := ops[i-1], ops[i], ops[i+1]
		if c.strategy == mem.None || b.strategy != mem.None || a.strategy != mem.None ||
			b.group != c.group || a.group != c.group || b.ms == 0 || c.ms == 0 || a.ms == 0 {
			continue
		}
		r.add(c.strategy, c.group, c.ms/math.Sqrt(b.ms*a.ms))
	}
	return r
}

// setExec reports execution time. mem.exec_ms is the geomean over
// strategies and groups of the median time, and mem.exec_ms.<strategy>
// the geomean of the strategy's group medians. exec_rel.<strategy> is
// the geomean over groups of the median of the group's samples in r.
func setExec(res *result, e execSamples, r rels) {
	var all []float64
	for _, st := range mem.Strategies() {
		var meds []float64
		for _, xs := range e[st] {
			m := median(xs)
			all = append(all, m)
			meds = append(meds, m)
		}
		res.layer["mem.exec_ms."+st.String()] = geomean(meds)
		if st != mem.None {
			var gs []float64
			for _, xs := range r[st] {
				gs = append(gs, median(xs))
			}
			res.e2e["exec_rel."+st.String()] = geomean(gs)
		}
	}
	res.layer["mem.exec_ms"] = geomean(all)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// selfMedian returns the median self time of spans named name, scaled
// from ns by div (1e3 for µs, 1e6 for ms).
func selfMedian(self map[string][]float64, name string, div float64) float64 {
	return median(self[name]) / div
}
