package faultsim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
)

// The campaign scheduler: every accuracy measurement decomposes into
// independent (campaign, Monte-Carlo round) work units, and each unit derives
// its fault randomness purely from (campaign seed, round index) via
// rng.Stream splitting — never from a shared generator — so the set of
// sampled faults is identical for any worker count and any completion order.
// Workers only ever write to their own unit's result slot; aggregation
// happens on the caller's goroutine after all units finish. Determinism is
// therefore structural, not incidental: results are bit-identical between
// Workers=1 and Workers=N.
//
// Cancellation follows the same unit structure: workers re-check the context
// before claiming each unit, so a canceled campaign stops after at most one
// in-flight unit per worker instead of draining the whole sweep. Units that
// were executed before the cancellation are still deterministic; the caller
// must treat the aggregate as invalid whenever ctx.Err() != nil.

// ResolvedWorkers reports the concrete worker count the scheduler will use
// for this campaign: Workers, with 0 meaning GOMAXPROCS. Callers use it to
// decide whether speculative extra campaigns are free (idle workers) or
// would cost serial wall-clock time.
func (o *Options) ResolvedWorkers() int { return resolveWorkers(o.Workers) }

// resolveWorkers maps the Workers option to a concrete worker count:
// 0 (the default) means GOMAXPROCS, anything below 1 is clamped to serial.
func resolveWorkers(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// execContext draws a per-worker ExecContext from the runner's recycling
// pool (warm scratch arenas and golden planes survive across batches),
// falling back to a fresh one when the pool is empty, and stamps the
// runner's kernel onto it.
func (r *Runner) execContext() *nn.ExecContext {
	ec, ok := r.ecPool.Get().(*nn.ExecContext)
	if !ok {
		ec = r.Net.NewExecContext()
	}
	ec.UseBackend(r.backend)
	return ec
}

// runUnits executes fn(ctx, u) for every unit u in [0, n) across the given
// number of workers, stopping early (without running the remaining units)
// once ctx is canceled. Each worker owns a private nn.ExecContext over the
// runner's network, so forward passes reuse per-worker state without
// sharing any of it; contexts return to the runner's pool when the worker
// drains normally. A panic in any unit is captured and re-raised on the
// calling goroutine once all workers have drained (its context is dropped —
// mid-pass scratch state is not re-pooled).
func (r *Runner) runUnits(ctx context.Context, workers, n int, fn func(ec *nn.ExecContext, u int)) {
	if n <= 0 {
		return
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers == 1 {
		ec := r.execContext()
		for u := 0; u < n; u++ {
			select {
			case <-done:
				return
			default:
			}
			fn(ec, u)
		}
		r.ecPool.Put(ec)
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicOne sync.Once
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOne.Do(func() { panicked = p })
					// Drain the queue so sibling workers exit promptly.
					next.Store(int64(n))
				}
			}()
			ec := r.execContext()
			for {
				select {
				case <-done:
					return
				default:
				}
				u := int(next.Add(1)) - 1
				if u >= n {
					r.ecPool.Put(ec)
					return
				}
				fn(ec, u)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
