package main

import (
	"sync"
	"time"

	"leapsandbounds/internal/workloads"
)

// yardstickNominal is the yardstick's median pass on the machine the
// benchmark was defined on (2 vCPU x86-64 VM, Go 1.24, a slow phase).
const yardstickNominal = 200 * time.Microsecond

// yardstickPasses is how many passes one reading takes.
const yardstickPasses = 5

// yardstick is fixed native work that runs no code of the system under
// test: the native twins of gemm, jacobi-2d, 505.mcf and 557.xz at
// Test class. The host's speed changes by up to 2x between runs (the
// twins and the engines ran twice as fast in one half hour as in the
// next), so set-up times are scaled by a reading taken just before
// them, and runs compare set-up at the same host speed. Engine invokes
// also drift in ways the twins do not show, so nothing else is scaled.
type yardstick struct {
	fns []func() uint64
	mu  sync.Mutex
	ns  []float64
}

func newYardstick() (*yardstick, error) {
	y := &yardstick{}
	for _, n := range []string{"gemm", "jacobi-2d", "505.mcf", "557.xz"} {
		spec, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		_, native, err := spec.BuildChecked(workloads.Test)
		if err != nil {
			return nil, err
		}
		y.fns = append(y.fns, native)
	}
	return y, nil
}

// factor times yardstickPasses passes and returns what a time measured
// next to them is multiplied by to read at nominal host speed.
func (y *yardstick) factor() float64 {
	var pass []float64
	for i := 0; i < yardstickPasses; i++ {
		t0 := time.Now()
		for _, f := range y.fns {
			f()
		}
		pass = append(pass, float64(time.Since(t0).Nanoseconds()))
	}
	m := median(pass)
	y.mu.Lock()
	y.ns = append(y.ns, m)
	y.mu.Unlock()
	return float64(yardstickNominal.Nanoseconds()) / m
}

// medianUs is the median of the run's readings in µs.
func (y *yardstick) medianUs() float64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	return median(y.ns) / 1e3
}
