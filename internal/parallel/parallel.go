// Package parallel is the multicore host force engine: the paper's
// kernel, sharded across OS threads the same way it is sharded across
// Cell SPEs, GPU fragment processors, and MTA-2 streams in the device
// models. The decisive design choice is identical to the one the paper
// faces on every accelerator: partition the atoms into independent
// *output* shards, let each worker gather over whatever inputs it
// needs, and reduce privately-accumulated forces afterwards — never
// scatter Newton's-third-law updates into another shard's atoms.
//
// The engine owns no pair loop. The kernels live in internal/md, each
// written once over a range (md.ComputeForcesFullRows over atom rows,
// md.NeighborList.ForcesSpan over a flattened pair span,
// md.NeighborList.BuildRow over list rows), and the engine only shards
// them: it picks the ranges, hands each worker a private buffer,
// reduces the buffers in a fixed tree, and arms fault injection and
// context cancellation around every shard. Each method has one entry
// point, which returns an error when a worker fails:
//
//   - ForcesDirect: the paper's O(N²) full-loop (gather-only) kernel,
//     sharded by atom range. Each atom's acceleration is written by
//     exactly one worker, so no synchronization is needed beyond the
//     join.
//   - ForcesPairlist: the Verlet-list kernel, sharded by pair chunk.
//     The half-triangle pair layout scatters to both atoms of a pair,
//     so each worker scatters into a private acceleration buffer and
//     the buffers are combined by a parallel tree reduction.
//   - BuildPairlist: the neighbor-list build, sharded by row range
//     after the list's single cell-binning pass
//     (md.NeighborList.BeginBuild), in one shard on the caller below
//     serialBuildAtoms. Rows are disjoint and row content is
//     sharding-independent, so the built list — and every force
//     evaluated over it — is byte-identical for any worker count.
//
// The force kernels match their serial counterparts to rounding (with
// one worker, each is bitwise identical to its serial loop); the
// package tests pin this, and the whole package is race-detector
// clean. Like every kernel, a build belongs to the one runner that
// owns the engine.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/faults"
	"repro/internal/md"
	"repro/internal/vec"
)

// MaxWorkers caps the pool size: beyond this, per-worker buffers cost
// more than any plausible host parallelism returns.
const MaxWorkers = 256

// ClampWorkers folds a requested worker count into the sane range:
// 0 means "one per CPU", negative counts clamp to 1, and huge counts
// clamp to MaxWorkers.
func ClampWorkers(w int) int {
	switch {
	case w == 0:
		w = runtime.NumCPU()
	case w < 0:
		w = 1
	}
	if w > MaxWorkers {
		w = MaxWorkers
	}
	return w
}

// Engine is a persistent pool of force workers plus the per-worker
// state the kernels shard over. An Engine is reusable across steps (the
// pool and buffers persist) but a single Engine must not evaluate
// forces or build lists from multiple goroutines at once. Close releases the workers;
// a closed Engine must not be used again.
type Engine[T vec.Float] struct {
	workers int
	tasks   chan func()
	once    sync.Once

	// inj is the fault injector consulted at the worker and
	// parallel-forces sites; nil (the default) is a no-op.
	inj faults.Injector

	// ctx, when non-nil, bounds every kernel evaluation: a worker
	// checks it before starting its shard (and an injected Delay fault
	// selects on it), so a cancelled caller aborts an in-flight
	// evaluation at worker-task granularity instead of at run end.
	ctx context.Context

	shards []shard[T]
}

// shard is one worker's private state.
type shard[T vec.Float] struct {
	pe  T            // partial potential energy
	acc md.Coords[T] // private accumulator (pairlist kernel)
}

// New creates an engine with ClampWorkers(workers) workers. With one
// worker no goroutines are spawned and every kernel runs inline on the
// caller.
func New[T vec.Float](workers int) *Engine[T] {
	w := ClampWorkers(workers)
	e := &Engine[T]{workers: w, shards: make([]shard[T], w)}
	if w > 1 {
		e.tasks = make(chan func())
		for i := 0; i < w; i++ {
			go func() {
				for f := range e.tasks {
					f()
				}
			}()
		}
	}
	return e
}

// Workers returns the pool size.
func (e *Engine[T]) Workers() int { return e.workers }

// Close stops the worker goroutines. It is idempotent.
func (e *Engine[T]) Close() {
	e.once.Do(func() {
		if e.tasks != nil {
			close(e.tasks)
		}
	})
}

// SetInjector installs a fault injector consulted once per worker task
// (faults.SiteWorker: panic, delay, error) and once per kernel
// evaluation (faults.SiteParallelForces: output corruption). Pass nil
// to disarm. Must not be called concurrently with a force evaluation.
func (e *Engine[T]) SetInjector(in faults.Injector) { e.inj = in }

// SetContext installs the context that bounds subsequent kernel
// evaluations: once it is cancelled, workers skip their shards and the
// evaluation returns the context error. Pass nil to clear. Like
// SetInjector, it must not be called concurrently with a force
// evaluation — the runner sets it once per Run.
func (e *Engine[T]) SetContext(ctx context.Context) { e.ctx = ctx }

// evalCtx returns the context bounding the current evaluation.
func (e *Engine[T]) evalCtx() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// call runs one worker's share under recover, applying any armed
// worker-site fault first when arm is set. A panic — injected or real
// — becomes an error on the caller instead of killing the process;
// this isolation is the contract the guard supervisor's retry ladder
// builds on. The neighbor-list build passes arm=false so builds do not
// advance the worker-site fault schedule the force-evaluation tests
// pin call numbers against.
func (e *Engine[T]) call(w int, arm bool, fn func(w int)) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("parallel: worker %d panicked: %v", w, rec)
		}
	}()
	ctx := e.evalCtx()
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("parallel: worker %d: %w", w, cerr)
	}
	if arm {
		if f := faults.Fire(e.inj, faults.SiteWorker); f != nil {
			if ferr := f.WorkerFaultCtx(ctx); ferr != nil {
				return fmt.Errorf("parallel: worker %d: %w", w, ferr)
			}
		}
	}
	fn(w)
	return nil
}

// runN executes fn(0..n-1) across the pool under call's arm switch,
// waits for all of them, and returns the first worker failure (the
// others still run to completion, so the pool stays consistent). n
// must be at most e.workers.
func (e *Engine[T]) runN(n int, arm bool, fn func(w int)) error {
	if e.workers == 1 || n == 1 {
		for w := 0; w < n; w++ {
			if err := e.call(w, arm, fn); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	wg.Add(n)
	for w := 0; w < n; w++ {
		w := w
		e.tasks <- func() {
			defer wg.Done()
			if err := e.call(w, arm, fn); err != nil {
				errMu.Lock()
				if first == nil {
					first = err
				}
				errMu.Unlock()
			}
		}
	}
	wg.Wait()
	return first
}

// run executes fn once per worker, waits, and returns the first worker
// failure.
func (e *Engine[T]) run(fn func(w int)) error { return e.runN(e.workers, true, fn) }

// corruptOutput applies any armed parallel-forces fault to a completed
// kernel's output.
func (e *Engine[T]) corruptOutput(acc md.Coords[T]) {
	if f := faults.Fire(e.inj, faults.SiteParallelForces); f != nil {
		faults.CorruptPlane(f.Kind, acc.X)
	}
}

// shardRange splits n items into parts contiguous near-equal ranges
// and returns range w's [lo, hi): atoms for the direct kernel and the
// publish step, flattened pairs for the list kernel, rows for the
// build.
func shardRange(n, w, parts int) (lo, hi int) {
	return w * n / parts, (w + 1) * n / parts
}

// reducePE sums the per-worker partial energies in worker order — a
// fixed association, so results are deterministic for a given worker
// count.
func (e *Engine[T]) reducePE() T {
	var pe T
	for w := range e.shards {
		pe += e.shards[w].pe
	}
	return pe
}

// ForcesDirect evaluates the paper's O(N²) kernel with atom-range
// sharding: each worker runs md.ComputeForcesFullRows over its own
// atom range. acc is overwritten; the return value is the total
// potential energy. With one worker the result is bitwise identical to
// md.ComputeForcesFull. A worker panic (real or injected) surfaces as
// an error and the process — and the pool — survive. On error, acc is
// undefined.
func (e *Engine[T]) ForcesDirect(p md.Params[T], pos, acc md.Coords[T]) (T, error) {
	n := pos.Len()
	err := e.run(func(w int) {
		lo, hi := shardRange(n, w, e.workers)
		e.shards[w].pe, _ = md.ComputeForcesFullRows(p, pos, acc, lo, hi)
	})
	if err != nil {
		return 0, err
	}
	e.corruptOutput(acc)
	return e.reducePE() / 2, nil
}

// buildCtxStride is how many neighbor-list rows a build worker fills
// between context checks: frequent enough that a cancelled replica
// stops a large build well inside one MD step, rare enough that the
// check is free against the ~100 distance tests each row costs.
const buildCtxStride = 256

// serialBuildAtoms is the atom count below which BuildPairlist runs
// the build inline instead of sharding it, where task hand-off and
// shard bookkeeping cost more than a second core returns. On a 2-vCPU
// Xeon (go1.24, BenchmarkNeighborBuild, two runs each) the serial
// cell-binned build took 1.6–2.0 ms at n512, 11.8–12.3 ms at n2048 and
// 44.3–44.6 ms at n8192; the sharded build at two workers took
// 1.58–1.73, 7.4–8.9 and 24.6–27.0 ms. It ties at 512 and wins from
// 2048 up, so the crossover sits between the two. Output is
// unaffected: rows are position-determined, so every shard count emits
// byte-identical lists (pinned by TestBuildPairlistWorkersBitwise).
const serialBuildAtoms = 1024

// BuildPairlist rebuilds nl from pos with row-range sharding over the
// pool: BeginBuild bins the atoms once, then each shard fills a
// contiguous range of rows (one shard below serialBuildAtoms). Rows
// are disjoint and each row's content is independent of the sharding
// (ascending-j by construction, see md.NeighborList.BuildRow), so the
// built list is byte-identical for every worker count and identical
// to the serial Build. The SetContext context bounds the build at
// row-stride granularity; on cancellation (or a worker failure) the
// list is left stale-but-consistent and an error is returned.
func (e *Engine[T]) BuildPairlist(nl *md.NeighborList[T], p md.Params[T], pos md.Coords[T]) error {
	ctx := e.evalCtx()
	nl.BeginBuild(p, pos)
	n := pos.Len()
	shards := e.workers
	if n < serialBuildAtoms {
		shards = 1
	}
	err := e.runN(shards, false, func(w int) {
		lo, hi := shardRange(n, w, shards)
		for i := lo; i < hi; i++ {
			if (i-lo)%buildCtxStride == 0 && ctx.Err() != nil {
				return // abandon the shard; EndBuild below is skipped
			}
			nl.BuildRow(p, pos, i)
		}
	})
	if err == nil {
		err = ctx.Err() // a late cancellation may have abandoned rows
	}
	if err != nil {
		return fmt.Errorf("parallel: pairlist build: %w", err)
	}
	nl.EndBuild(pos)
	return nil
}

// ForcesPairlist evaluates the Verlet-list kernel with pair-chunk
// sharding: the flattened (i, j) pair sequence is split into one
// near-equal chunk per worker (splitting inside an atom's neighbor list
// when needed), each worker runs md.NeighborList.ForcesSpan over its
// chunk into a private acceleration buffer, and the buffers are
// combined by a parallel tree reduction before being written to acc.
// The list is rebuilt first if stale. acc is overwritten; the return
// value is the potential energy, matching nl.Forces to rounding (and
// bitwise with one worker). A worker panic (real or injected) surfaces
// as an error and the process — and the pool — survive. On error, acc
// is undefined.
func (e *Engine[T]) ForcesPairlist(nl *md.NeighborList[T], p md.Params[T], pos, acc md.Coords[T]) (T, error) {
	if nl.Stale(p, pos) {
		if err := e.BuildPairlist(nl, p, pos); err != nil {
			return 0, err
		}
	}
	n := pos.Len()
	total := nl.PairCount()
	err := e.run(func(w int) {
		sh := &e.shards[w]
		sh.acc.Resize(n)
		sh.acc.Zero()
		lo, hi := shardRange(total, w, e.workers)
		sh.pe = nl.ForcesSpan(p, pos, sh.acc, lo, hi)
	})
	if err != nil {
		return 0, err
	}

	// Tree-reduce the private buffers: log₂(workers) rounds of pairwise
	// adds, each round's adds running in parallel. The fixed tree makes
	// the floating-point summation order deterministic for a given
	// worker count.
	for stride := 1; stride < e.workers; stride *= 2 {
		nadds := 0
		for w := 0; w+stride < e.workers; w += 2 * stride {
			nadds++
		}
		stride := stride
		if err := e.runN(nadds, true, func(k int) {
			w := k * 2 * stride
			dst, src := e.shards[w].acc, e.shards[w+stride].acc
			for i := range dst.X {
				dst.X[i] += src.X[i]
			}
			for i := range dst.Y {
				dst.Y[i] += src.Y[i]
			}
			for i := range dst.Z {
				dst.Z[i] += src.Z[i]
			}
		}); err != nil {
			return 0, err
		}
	}
	// Publish shard 0's totals into acc, sharded by atom range.
	if err := e.run(func(w int) {
		lo, hi := shardRange(n, w, e.workers)
		copy(acc.X[lo:hi], e.shards[0].acc.X[lo:hi])
		copy(acc.Y[lo:hi], e.shards[0].acc.Y[lo:hi])
		copy(acc.Z[lo:hi], e.shards[0].acc.Z[lo:hi])
	}); err != nil {
		return 0, err
	}
	e.corruptOutput(acc)
	return e.reducePE(), nil
}
