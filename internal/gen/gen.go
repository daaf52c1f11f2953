// Package gen synthesizes well-formed execution traces. It provides:
//
//   - Mixed, a scheduler-based generator with tunable thread count,
//     lock count, variable count, synchronization ratio and access
//     locality — the workhorse behind the benchmark suite that stands
//     in for the paper's 153 logged traces;
//   - the four controlled scalability scenarios of §6 Figure 10
//     (single lock, fifty locks skewed, star topology, pairwise
//     communication);
//   - application-shaped generators (producer/consumer, pipeline,
//     barrier phases, readers/writers, fork/join) used by the suite
//     and the examples.
//
// All generators are deterministic for a given configuration and seed,
// and every produced trace satisfies trace.Validate.
package gen

import (
	"math/rand"

	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// Config parameterizes the Mixed generator.
type Config struct {
	Name    string
	Threads int
	Locks   int
	Vars    int
	Events  int   // target number of events (approximate to ±2)
	Seed    int64 // deterministic stream

	// SyncFrac is the probability that an idle thread starts a
	// critical section rather than performing a plain access; it
	// controls the share of acq/rel events (Figure 7's x-axis).
	SyncFrac float64
	// ReadFrac is the fraction of accesses that are reads.
	ReadFrac float64
	// CSLen is the mean number of accesses inside a critical section.
	CSLen int
	// HotFrac is the fraction of accesses that target one of HotVars
	// heavily-shared variables; the rest hit thread-local slices of
	// the variable space.
	HotFrac float64
	HotVars int
	// Skew, when > 1, makes 20% of the threads Skew× more likely to
	// be scheduled (the paper's "skewed" scalability scenario).
	Skew float64
	// LockAffinity restricts each lock to a small set of user threads
	// (real programs' locks guard objects shared by few threads; the
	// paper's logged traces show this as large VCWork/VTWork ratios,
	// Figure 8). 0 means every thread may take every lock — the
	// unstructured worst case for tree clocks.
	LockAffinity int
	// Groups partitions the threads into communication groups: lock
	// user sets and shared variables are drawn within one group except
	// for a CrossFrac fraction of global locks. Real concurrent
	// programs are modular — knowledge circulates within a subsystem
	// and crosses subsystems rarely — which is what keeps the true
	// vector-time work per operation small. 0 disables grouping.
	Groups int
	// CrossFrac is the fraction of locks whose users span groups.
	CrossFrac float64
	// VarRun is the mean length of consecutive accesses a thread makes
	// to the same variable (temporal locality). 1 disables bursts.
	VarRun int
}

// withDefaults fills unset fields with sensible values.
func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Locks < 0 {
		c.Locks = 0
	}
	if c.Vars <= 0 {
		c.Vars = 16
	}
	if c.Events <= 0 {
		c.Events = 1000
	}
	if c.SyncFrac < 0 {
		c.SyncFrac = 0
	}
	if c.ReadFrac <= 0 {
		c.ReadFrac = 0.6
	}
	if c.CSLen <= 0 {
		c.CSLen = 3
	}
	if c.HotVars <= 0 || c.HotVars > c.Vars {
		c.HotVars = min(c.Vars, 4)
	}
	if c.HotFrac <= 0 {
		// Real traces are overwhelmingly thread-local (the paper's
		// Table 1 benchmarks): only a few percent of accesses touch
		// variables shared across threads.
		c.HotFrac = 0.05
	}
	if c.Skew < 1 {
		c.Skew = 1
	}
	if c.Groups > c.Threads {
		c.Groups = c.Threads
	}
	if c.CrossFrac <= 0 {
		c.CrossFrac = 0.05
	}
	if c.VarRun <= 0 {
		c.VarRun = 6
	}
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// threadPicker draws threads, optionally with the 20%/Skew× bias.
type threadPicker struct {
	r      *rand.Rand
	k      int
	hot    int     // first `hot` threads are the biased ones
	pHot   float64 // probability mass of the hot group
	skewed bool
}

func newThreadPicker(r *rand.Rand, k int, skew float64) *threadPicker {
	tp := &threadPicker{r: r, k: k}
	if skew > 1 && k >= 5 {
		tp.skewed = true
		tp.hot = k / 5
		hotMass := skew * float64(tp.hot)
		tp.pHot = hotMass / (hotMass + float64(k-tp.hot))
	}
	return tp
}

func (tp *threadPicker) pick() vt.TID {
	if tp.skewed {
		if tp.r.Float64() < tp.pHot {
			return vt.TID(tp.r.Intn(tp.hot))
		}
		return vt.TID(tp.hot + tp.r.Intn(tp.k-tp.hot))
	}
	return vt.TID(tp.r.Intn(tp.k))
}

// mixedState tracks one thread of the Mixed scheduler.
type mixedState struct {
	lock   int32 // held lock, -1 if none
	budget int   // accesses left inside the critical section
	curVar int32 // variable of the current access burst
	run    int   // accesses left in the burst
}

// Mixed generates a trace by interleaving per-thread state machines
// under a random scheduler: threads alternate between plain accesses
// and critical sections (acquire, a few accesses, release), respecting
// lock semantics, with locality-biased variable choice.
func Mixed(cfg Config) *trace.Trace {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	tp := newThreadPicker(r, cfg.Threads, cfg.Skew)

	events := make([]trace.Event, 0, cfg.Events)
	states := make([]mixedState, cfg.Threads)
	for i := range states {
		states[i].lock = -1
	}
	lockHolder := make([]vt.TID, cfg.Locks)
	for i := range lockHolder {
		lockHolder[i] = vt.None
	}

	// Group structure: thread t belongs to group t*Groups/Threads.
	groupOf := func(t int) int {
		if cfg.Groups <= 1 {
			return 0
		}
		return t * cfg.Groups / cfg.Threads
	}
	groupMembers := make([][]int, max(cfg.Groups, 1))
	for t := 0; t < cfg.Threads; t++ {
		g := groupOf(t)
		groupMembers[g] = append(groupMembers[g], t)
	}

	// With affinity, each lock gets a small user set — drawn within a
	// single group unless the lock is one of the CrossFrac global
	// locks — and each thread a list of the locks it may take.
	locksOf := make([][]int32, cfg.Threads)
	if cfg.LockAffinity > 0 && cfg.Locks > 0 {
		for l := 0; l < cfg.Locks; l++ {
			pool := groupMembers[r.Intn(len(groupMembers))]
			if cfg.Groups <= 1 || r.Float64() < cfg.CrossFrac {
				pool = nil // global lock: sample across all threads
			}
			users := cfg.LockAffinity
			if pool != nil && users > len(pool) {
				users = len(pool)
			}
			if users > cfg.Threads {
				users = cfg.Threads
			}
			seen := make(map[int]bool, users)
			for len(seen) < users {
				var t int
				if pool != nil {
					t = pool[r.Intn(len(pool))]
				} else {
					t = r.Intn(cfg.Threads)
				}
				if !seen[t] {
					seen[t] = true
					locksOf[t] = append(locksOf[t], int32(l))
				}
			}
		}
	}
	pickLock := func(t vt.TID) (int32, bool) {
		if cfg.LockAffinity <= 0 {
			return int32(r.Intn(cfg.Locks)), true
		}
		mine := locksOf[t]
		if len(mine) == 0 {
			return 0, false
		}
		return mine[r.Intn(len(mine))], true
	}

	coldPerThread := 0
	if cfg.Vars > cfg.HotVars {
		coldPerThread = (cfg.Vars - cfg.HotVars) / cfg.Threads
	}
	// Shared (hot) variables are partitioned among the groups so that
	// data sharing, like locking, stays mostly within a group.
	hotPerGroup := cfg.HotVars / max(cfg.Groups, 1)
	pickVar := func(t vt.TID) int32 {
		if coldPerThread == 0 || r.Float64() < cfg.HotFrac {
			if cfg.Groups > 1 && hotPerGroup > 0 && r.Float64() >= cfg.CrossFrac {
				g := groupOf(int(t))
				return int32(g*hotPerGroup + r.Intn(hotPerGroup))
			}
			return int32(r.Intn(cfg.HotVars))
		}
		base := cfg.HotVars + int(t)*coldPerThread
		return int32(base + r.Intn(coldPerThread))
	}
	access := func(t vt.TID) trace.Event {
		st := &states[t]
		if st.run <= 0 {
			st.curVar = pickVar(t)
			st.run = 1 + r.Intn(2*cfg.VarRun)
		}
		st.run--
		kind := trace.Write
		if r.Float64() < cfg.ReadFrac {
			kind = trace.Read
		}
		return trace.Event{T: t, Obj: st.curVar, Kind: kind}
	}

	for len(events) < cfg.Events {
		t := tp.pick()
		st := &states[t]
		switch {
		case st.lock >= 0 && st.budget > 0:
			events = append(events, access(t))
			st.budget--
		case st.lock >= 0:
			events = append(events, trace.Event{T: t, Obj: st.lock, Kind: trace.Release})
			lockHolder[st.lock] = vt.None
			st.lock = -1
		case cfg.Locks > 0 && r.Float64() < cfg.SyncFrac:
			l, ok := pickLock(t)
			if !ok {
				events = append(events, access(t))
				break
			}
			if lockHolder[l] != vt.None {
				// Contended: do useful work instead of blocking.
				events = append(events, access(t))
				break
			}
			lockHolder[l] = t
			st.lock = l
			st.budget = r.Intn(2*cfg.CSLen + 1)
			events = append(events, trace.Event{T: t, Obj: l, Kind: trace.Acquire})
		default:
			events = append(events, access(t))
		}
	}
	// Close any open critical sections so the trace stays well formed.
	for t := range states {
		if l := states[t].lock; l >= 0 {
			events = append(events, trace.Event{T: vt.TID(t), Obj: l, Kind: trace.Release})
		}
	}

	return &trace.Trace{
		Meta: trace.Meta{
			Name:    cfg.Name,
			Threads: cfg.Threads,
			Locks:   cfg.Locks,
			Vars:    cfg.Vars,
		},
		Events: events,
	}
}
