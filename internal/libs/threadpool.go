package libs

import (
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/sched"
	"github.com/cheriot-go/cheriot/internal/switcher"
)

// ThreadPool is the thread-pool compartment of Fig. 5: callers enqueue
// pre-registered jobs (compartment entry points, fixed at build time so
// the pool's import table — and therefore everything it can possibly run —
// is auditable) and pool worker threads execute them asynchronously.
const ThreadPool = "threadpool"

// Thread-pool entry names.
const (
	FnPoolDispatch = "pool_dispatch"
	FnPoolWorker   = "pool_worker"
	FnPoolPending  = "pool_pending"
)

// Job is one unit of dispatchable work, fixed at build time.
type Job struct {
	Target string
	Entry  string
}

type poolState struct {
	jobs    []Job
	queue   []int // indices into jobs
	stopped bool
	// completed counts finished jobs, for tests and back-pressure.
	completed int
}

// Pool configures a thread-pool compartment.
type Pool struct {
	// Jobs is the static dispatch table.
	Jobs []Job
	// Workers is the number of worker threads (default 2).
	Workers int
}

// AddTo registers the pool compartment and its worker threads.
func (p *Pool) AddTo(img *firmware.Image) {
	if p.Workers == 0 {
		p.Workers = 2
	}
	jobs := append([]Job(nil), p.Jobs...)
	imports := append([]firmware.Import{}, sched.Imports()...)
	for _, j := range jobs {
		imports = append(imports, firmware.Import{
			Kind: firmware.ImportCall, Target: j.Target, Entry: j.Entry,
		})
	}
	img.AddCompartment(&firmware.Compartment{
		Name: ThreadPool, CodeSize: 1000, DataSize: 32,
		State:   func() interface{} { return &poolState{jobs: jobs} },
		Imports: imports,
		Exports: []*firmware.Export{
			{Name: FnPoolDispatch, MinStack: 256, Entry: poolDispatch},
			{Name: FnPoolWorker, MinStack: 4096, Entry: poolWorker},
			{Name: FnPoolPending, MinStack: 128, Entry: poolPending},
		},
	})
	for i := 0; i < p.Workers; i++ {
		img.AddThread(&firmware.Thread{
			Name: "pool-" + string(rune('a'+i)), Compartment: ThreadPool,
			Entry: FnPoolWorker, Priority: 2,
			StackSize: 16 * 1024, TrustedStackFrames: 16,
		})
	}
}

// PoolCompleted reports how many jobs the thread pool on machine k has
// finished.
func PoolCompleted(k *switcher.Kernel) int {
	return k.Comp(ThreadPool).State().(*poolState).completed
}

// PoolImports returns the imports a dispatching compartment needs.
func PoolImports() []firmware.Import {
	return []firmware.Import{
		{Kind: firmware.ImportCall, Target: ThreadPool, Entry: FnPoolDispatch},
		{Kind: firmware.ImportCall, Target: ThreadPool, Entry: FnPoolPending},
	}
}

// poolDispatch(jobIndex) -> errno enqueues one job. The first word of the
// pool's globals is the dispatch counter, which doubles as the futex word
// workers sleep on.
func poolDispatch(ctx api.Context, args []api.Value) []api.Value {
	if len(args) < 1 {
		return api.EV(api.ErrInvalid)
	}
	st := ctx.State().(*poolState)
	idx := int(args[0].AsWord())
	if idx < 0 || idx >= len(st.jobs) {
		return api.EV(api.ErrNotFound)
	}
	st.queue = append(st.queue, idx)
	w := ctx.Globals()
	ctx.Store32(w, ctx.Load32(w)+1)
	_, _ = ctx.Call(sched.Name, sched.EntryFutexWake, api.C(w), api.W(1))
	return api.EV(api.OK)
}

// poolWorker is the worker-thread body: wait for work, run it, repeat. A
// job that faults is contained by its own compartment boundary; the
// worker survives and moves on.
func poolWorker(ctx api.Context, args []api.Value) []api.Value {
	st := ctx.State().(*poolState)
	w := ctx.Globals()
	for !st.stopped {
		if len(st.queue) == 0 {
			seen := ctx.Load32(w)
			if len(st.queue) == 0 {
				rets, err := ctx.Call(sched.Name, sched.EntryFutexWait,
					api.C(w), api.W(seen), api.W(50_000_000))
				if err != nil {
					return api.EV(api.ErrUnwound)
				}
				if api.ErrnoOf(rets) == api.ErrTimeout && len(st.queue) == 0 {
					// Idle timeout with nothing queued: workers retire so
					// test images terminate; long-running firmware keeps
					// dispatching and never hits this.
					return api.EV(api.OK)
				}
			}
			continue
		}
		idx := st.queue[0]
		st.queue = st.queue[1:]
		job := st.jobs[idx]
		_, _ = ctx.Call(job.Target, job.Entry)
		st.completed++
	}
	return api.EV(api.OK)
}

// poolPending() -> (errno, n) reports queued jobs.
func poolPending(ctx api.Context, args []api.Value) []api.Value {
	st := ctx.State().(*poolState)
	return ctx.Ret(api.W(uint32(api.OK)), api.W(uint32(len(st.queue))))
}
