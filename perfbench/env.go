package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// provenance identifies the build and host a run measured.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readProvenance() provenance {
	return provenance{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NProc:      nproc(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// gitSHA reads the checked-out commit from .git without running git;
// a source tree without .git (an exported checkout) reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: "))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// nproc counts the CPUs this process may run on, as nproc(1) does:
// the scheduler affinity mask, not the Go runtime's view.
func nproc() int {
	var mask [128]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return runtime.NumCPU()
	}
	n := 0
	for _, w := range mask {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// procStatusMiB reads one size field (VmRSS, VmHWM) of
// /proc/self/status in MiB, or 0 when it cannot.
func procStatusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTimes is the aggregate cpu line of /proc/stat, in jiffies.
type cpuTimes struct {
	total, iowait, steal uint64
	ok                   bool
}

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// guest and guest_nice (fields 9, 10) are already counted in
		// user and nice.
		if i < 8 {
			t.total += v
		}
		switch i {
		case 4:
			t.iowait = v
		case 7:
			t.steal = v
		}
	}
	t.ok = true
	return t
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

// window brackets one measured interval with host and Go runtime
// counters, so a run reports the noise it ran under.
type window struct {
	cpu  cpuTimes
	rt   []metrics.Sample
	stop chan struct{}
	mem  chan memSamples
}

// memSamples are the resident set and the live heap read every
// memInterval through a window, in MiB.
type memSamples struct{ rss, live []float64 }

const memInterval = time.Second

// sampleMem forces a full collection that hands freed memory back to
// the OS, then reads the resident set and the live heap; at once and
// every memInterval until stop is closed. What the workload keeps
// (templates, caches, pools, compiled code) then shows independent of
// when the GC last ran, and the median over the window does not depend
// on what the pools held at one moment.
func sampleMem(stop <-chan struct{}, out chan<- memSamples) {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var m memSamples
	tick := time.NewTicker(memInterval)
	defer tick.Stop()
	for {
		debug.FreeOSMemory()
		m.rss = append(m.rss, procStatusMiB("VmRSS"))
		metrics.Read(live)
		m.live = append(m.live, float64(live[0].Value.Uint64())/(1<<20))
		select {
		case <-stop:
			out <- m
			return
		case <-tick.C:
		}
	}
}

// windowStats are the deltas over one window.
type windowStats struct {
	StealPct, IOWaitPct float64
	GCCycles            float64
	GCPauseMs           float64
	AllocMiB            float64
	SchedLatP99Us       float64
	// RetainedMiB and LiveHeapMiB are the medians of the window's
	// samples.
	RetainedMiB, LiveHeapMiB float64
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func startWindow() window {
	w := window{cpu: readCPUTimes(), rt: readRuntime(), stop: make(chan struct{}), mem: make(chan memSamples)}
	go sampleMem(w.stop, w.mem)
	return w
}

func (w window) end() windowStats {
	cpu, rt := readCPUTimes(), readRuntime()
	close(w.stop)
	m := <-w.mem
	var st windowStats
	st.RetainedMiB, st.LiveHeapMiB = median(m.rss), median(m.live)
	if w.cpu.ok && cpu.ok && cpu.total > w.cpu.total {
		d := float64(cpu.total - w.cpu.total)
		st.StealPct = 100 * float64(cpu.steal-w.cpu.steal) / d
		st.IOWaitPct = 100 * float64(cpu.iowait-w.cpu.iowait) / d
	}
	st.GCCycles = float64(rt[0].Value.Uint64() - w.rt[0].Value.Uint64())
	st.AllocMiB = float64(rt[1].Value.Uint64()-w.rt[1].Value.Uint64()) / (1 << 20)
	pauses := histDelta(w.rt[2].Value.Float64Histogram(), rt[2].Value.Float64Histogram())
	st.GCPauseMs = pauses.sum() * 1e3
	lat := histDelta(w.rt[3].Value.Float64Histogram(), rt[3].Value.Float64Histogram())
	st.SchedLatP99Us = lat.quantile(0.99) * 1e6
	return st
}

// hist is a runtime/metrics histogram delta.
type hist struct {
	counts  []uint64
	buckets []float64
}

func histDelta(a, b *metrics.Float64Histogram) hist {
	h := hist{counts: make([]uint64, len(b.Counts)), buckets: b.Buckets}
	for i := range b.Counts {
		h.counts[i] = b.Counts[i] - a.Counts[i]
	}
	return h
}

// sum approximates the total of the observations by bucket midpoints
// (lower bound for the open-ended last bucket).
func (h hist) sum() float64 {
	var s float64
	for i, c := range h.counts {
		lo, hi := h.buckets[i], h.buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		mid := lo
		if !math.IsInf(hi, 1) {
			mid = (lo + hi) / 2
		}
		s += float64(c) * mid
	}
	return s
}

// quantile returns the upper bound of the bucket holding quantile q.
func (h hist) quantile(q float64) float64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if hi := h.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.buckets[i]
		}
	}
	return 0
}
