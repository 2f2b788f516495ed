package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"goldfish/internal/obs"
)

// Cell is one point of the run matrix: a strategy trained at a seed under
// one attack probe, over the spec's shared dataset/partition/schedule.
type Cell struct {
	// Strategy is the unlearning strategy's name.
	Strategy string
	// Seed drives the cell's data generation, partitioning and model
	// initialization. Cells sharing a seed see identical data and
	// partitions, which is what makes cross-strategy comparison fair;
	// poisoning additionally depends on the cell's attack type.
	Seed int64
	// Attack is the attack-probe type poisoning the cell's data ("" when
	// the spec has no attack).
	Attack string
	// Index is the cell's position in Spec.Cells() order.
	Index int
}

// Cells expands the spec's run matrix in deterministic order:
// strategy-major, then seed, then attack type.
func (s Spec) Cells() []Cell {
	seeds := s.SeedList()
	attacks := s.AttackList()
	out := make([]Cell, 0, len(s.Strategies)*len(seeds)*len(attacks))
	for _, strat := range s.Strategies {
		for _, seed := range seeds {
			for _, atk := range attacks {
				out = append(out, Cell{Strategy: strat, Seed: seed, Attack: atk, Index: len(out)})
			}
		}
	}
	return out
}

// Outcome is one executed cell: the metrics row for the report plus the
// final global state vector kept aside for cross-cell model comparison.
type Outcome struct {
	// Result is the cell's report row (Strategy/Seed/Attack are filled in
	// by Execute).
	Result CellResult
	// State is the final global model state, nil when the cell failed.
	State []float64
	// Canceled marks a cell that never produced a deterministic outcome
	// because the context was canceled before or during its run. Canceled
	// cells are excluded from partial reports (AssembleCells), since a
	// resumed run would produce a different — real — row for them.
	Canceled bool
}

// Runner executes one cell. It must be safe for concurrent invocation and
// derive all randomness from the cell's seed, so the matrix is deterministic
// regardless of scheduling.
type Runner func(ctx context.Context, cell Cell) (Outcome, error)

// Execute runs every cell of the spec's matrix concurrently on a worker
// pool bounded by Spec.Workers (default GOMAXPROCS), returning outcomes in
// Cells() order. A cell failure is recorded in its outcome's Error rather
// than aborting the matrix; ctx cancellation stops scheduling new cells and
// is returned once started cells finish.
func Execute(ctx context.Context, spec Spec, run Runner) ([]Outcome, error) {
	return ExecuteCells(ctx, spec, spec.Cells(), run)
}

// ExecuteCells runs the given subset of the spec's matrix (typically one
// machine shard from Spec.ShardCells) on a fixed pool of Spec.Workers
// goroutines pulling cells from a channel, so a 10k-cell matrix parks at
// most `workers` goroutines, not 10k. outcomes[i] corresponds to cells[i].
// Cells reached after ctx cancellation are marked Canceled instead of run;
// the context error is returned once in-flight cells finish.
func ExecuteCells(ctx context.Context, spec Spec, cells []Cell, run Runner) ([]Outcome, error) {
	if run == nil {
		return nil, fmt.Errorf("scenario: nil runner")
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	ob := obs.FromContext(ctx)
	out := make([]Outcome, len(cells))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c := cells[i]
				// Per-cell lifecycle goes to the observability side channel
				// only; the outcome rows stay byte-deterministic.
				sp := ob.StartSpan("scenario/cell",
					obs.Str("strategy", c.Strategy), obs.I64("seed", c.Seed),
					obs.Str("attack", c.Attack))
				t0 := ob.Elapsed()
				var o Outcome
				if err := ctx.Err(); err != nil {
					o.Result.Error = err.Error()
					o.Canceled = true
				} else if res, err := run(ctx, c); err != nil {
					o = res
					o.Result.Error = err.Error()
					o.State = nil
					// A runner error after cancellation is the
					// interruption surfacing, not a real cell failure.
					o.Canceled = ctx.Err() != nil
				} else {
					o = res
				}
				o.Result.Strategy, o.Result.Seed, o.Result.Attack = c.Strategy, c.Seed, c.Attack
				out[i] = o
				ob.Histogram("scenario.cell_ms", obs.MillisBuckets).Observe(float64((ob.Elapsed() - t0).Microseconds()) / 1e3)
				ob.Counter("scenario.cells").Inc()
				if o.Result.Error != "" {
					ob.Counter("scenario.cell_errors").Inc()
				}
				sp.End()
			}
		}()
	}
	// Feeding never deadlocks on cancellation: workers keep draining the
	// channel, marking post-cancellation cells Canceled without running them.
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("scenario: %w", err)
	}
	return out, nil
}
