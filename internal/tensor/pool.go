package tensor

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// The matrix kernels in this package fan row-panels of their output across a
// shared worker pool sized to GOMAXPROCS. Each panel is an independent set of
// output rows, so the parallel decomposition reproduces the serial kernel's
// floating-point accumulation order exactly: parallel and serial runs are
// bitwise identical.
//
// Setting GOLDFISH_SERIAL=1 in the environment disables the pool entirely
// (every kernel runs on the calling goroutine), which is useful when
// debugging with a deterministic single-threaded schedule or when profiling
// the kernels themselves.

// serialMode is read by every kernel dispatch; initialized from the
// environment, overridable via ForceSerial.
var serialMode atomic.Bool

func init() {
	if os.Getenv("GOLDFISH_SERIAL") == "1" {
		serialMode.Store(true)
	}
}

// ForceSerial toggles serial kernel execution at runtime (the programmatic
// equivalent of GOLDFISH_SERIAL=1) and returns the previous setting. It is
// used by benchmarks and parity tests to compare the two execution modes
// within one process.
func ForceSerial(v bool) bool { return serialMode.Swap(v) }

// panelTask is one contiguous range of output rows handed to a pool worker.
type panelTask struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

var (
	poolOnce sync.Once
	poolCh   chan panelTask
	poolSize int
)

// ensurePool lazily starts the GOMAXPROCS-sized worker pool. Workers live
// for the life of the process; an idle pool costs only blocked goroutines.
func ensurePool() {
	poolOnce.Do(func() {
		poolSize = runtime.GOMAXPROCS(0)
		poolCh = make(chan panelTask, 4*poolSize)
		for i := 0; i < poolSize; i++ {
			go func() {
				for t := range poolCh {
					t.fn(t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	})
}

// parallelThreshold is the approximate flop count below which forking to the
// pool costs more than it saves and the kernel runs on the caller.
const parallelThreshold = 64 * 1024

// parallelRows runs fn over [0, n) split into contiguous row panels across
// the worker pool. work estimates the total flop count of the call; small
// problems run serially on the caller. The caller executes the final panel
// itself, so the pool is never a hard dependency for progress.
func parallelRows(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if serialMode.Load() || n == 1 || work < parallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		fn(0, n)
		return
	}
	ensurePool()
	// Mild oversubscription smooths panels of uneven cost.
	chunks := 2 * poolSize
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	wg := waitGroups.Get().(*sync.WaitGroup)
	lo := 0
	for lo+size < n {
		wg.Add(1)
		poolCh <- panelTask{lo: lo, hi: lo + size, fn: fn, wg: wg}
		lo += size
	}
	fn(lo, n)
	wg.Wait()
	waitGroups.Put(wg)
}

// waitGroups recycles the wait group a forked call shares with the workers
// (it escapes through poolCh), so that forking allocates nothing.
var waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
