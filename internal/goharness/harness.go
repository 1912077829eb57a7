// Package goharness runs real Go closures under the systematic
// concurrency tester. Each thread of the program under test is a
// coroutine (iter.Pull) that announces every visible operation (shared
// reads and writes, lock/unlock, spawn/join, channel operations,
// assertions) by yielding it to the scheduler, and resumes only when
// the scheduler grants it. The scheduler and the thread bodies never
// run at the same time, so the interleaving of visible operations —
// the only interleaving that matters — is fully controlled and
// deterministic, and each visible operation costs two coroutine
// switches rather than a goroutine handshake.
//
// A coroutine switch cannot be abandoned on a timer, so while the
// stall watchdog is armed (model.MachineConfig.StallTimeout > 0) the
// machine starts threads through StartStall instead: the same body
// wrapper runs on its own goroutine and announces each operation over
// a channel handshake the watchdog can give up on.
//
// This is the Go analogue of LAZYLOCKS' Java bytecode instrumentation:
// the program text stays ordinary Go, and the harness supplies the
// scheduling points.
//
// Thread bodies must be deterministic: all cross-thread communication
// must go through the harness (G.Read/G.Write/G.Lock/...), and bodies
// must not consult ambient nondeterminism (time, maps iteration order,
// package-level mutable state shared across executions). A body must
// not call runtime.Goexit (t.FailNow, for example): on the coroutine
// path iter.Pull forwards it to the scheduler's goroutine, which it
// would end.
package goharness

import (
	"fmt"
	"iter"
	"time"

	"repro/internal/event"
	"repro/internal/model"
)

// Var names a shared variable of a harness program.
type Var int32

// Mutex names a mutex of a harness program.
type Mutex int32

// Chan names a channel of a harness program.
type Chan int32

// ThreadRef names a declared thread.
type ThreadRef event.ThreadID

// Body is the code of one thread.
type Body func(g *G)

// Program is a program under test built from Go closures. It
// implements model.Source; build it with New, Var, Mutex and Thread,
// then hand it to an exploration engine.
type Program struct {
	name      string
	varNames  []string
	muNames   []string
	chanNames []string
	chanCaps  []int32
	bodies    []Body
	init      map[Var]int64
	autoStart bool
}

var (
	_ model.Source        = (*Program)(nil)
	_ model.InitStorer    = (*Program)(nil)
	_ model.ChannelSource = (*Program)(nil)
	_ model.StallStarter  = (*Program)(nil)
)

// New returns an empty harness program.
func New(name string) *Program {
	return &Program{name: name, init: map[Var]int64{}}
}

// AutoStart makes all declared threads runnable initially (no explicit
// Spawn needed).
func (p *Program) AutoStart() *Program {
	p.autoStart = true
	return p
}

// Var declares a shared variable initialised to zero.
func (p *Program) Var(name string) Var {
	p.varNames = append(p.varNames, name)
	return Var(len(p.varNames) - 1)
}

// VarInit declares a shared variable with an initial value.
func (p *Program) VarInit(name string, x int64) Var {
	v := p.Var(name)
	p.init[v] = x
	return v
}

// Mutex declares a mutex.
func (p *Program) Mutex(name string) Mutex {
	p.muNames = append(p.muNames, name)
	return Mutex(len(p.muNames) - 1)
}

// Chan declares a channel with the given buffer capacity; 0 means
// unbuffered (rendezvous).
func (p *Program) Chan(name string, capacity int) Chan {
	if capacity < 0 {
		panic(fmt.Sprintf("goharness: Chan %q capacity %d", name, capacity))
	}
	p.chanNames = append(p.chanNames, name)
	p.chanCaps = append(p.chanCaps, int32(capacity))
	return Chan(len(p.chanNames) - 1)
}

// Thread declares a thread running body. The first thread declared is
// the initial thread.
func (p *Program) Thread(body Body) ThreadRef {
	p.bodies = append(p.bodies, body)
	return ThreadRef(len(p.bodies) - 1)
}

// Name implements model.Source.
func (p *Program) Name() string { return p.name }

// NumThreads implements model.Source.
func (p *Program) NumThreads() int { return len(p.bodies) }

// NumVars implements model.Source.
func (p *Program) NumVars() int { return len(p.varNames) }

// NumMutexes implements model.Source.
func (p *Program) NumMutexes() int { return len(p.muNames) }

// NumChannels implements model.ChannelSource.
func (p *Program) NumChannels() int { return len(p.chanNames) }

// ChannelCap implements model.ChannelSource.
func (p *Program) ChannelCap(c int32) int { return int(p.chanCaps[c]) }

// InitStore implements model.InitStorer.
func (p *Program) InitStore(store []int64) {
	for v, x := range p.init {
		store[v] = x
	}
}

// InitiallyRunning implements model.Source.
func (p *Program) InitiallyRunning() []event.ThreadID {
	if !p.autoStart {
		return []event.ThreadID{0}
	}
	out := make([]event.ThreadID, len(p.bodies))
	for i := range out {
		out[i] = event.ThreadID(i)
	}
	return out
}

// Start implements model.Source: it returns the thread body as an
// iter.Pull coroutine parked before its first visible operation. Each
// visible operation is one coroutine switch into the body and one
// back; the body never runs concurrently with the scheduler.
func (p *Program) Start(t event.ThreadID) model.Coroutine {
	c := &coroutine{}
	c.next, c.stop = iter.Pull(p.thread(t, &c.g))
	return c
}

// StartStall implements model.StallStarter. A coroutine switch cannot
// be abandoned on a timer, so with the stall watchdog armed the body
// runs on its own goroutine and announces each visible operation over
// a channel handshake the watchdog can time out on. The body wrapper
// is Start's; only the yield function differs.
func (p *Program) StartStall(t event.ThreadID) model.Coroutine {
	c := &stallCoroutine{
		req:   make(chan event.Op),
		grant: make(chan grant),
		done:  make(chan struct{}),
	}
	seq := p.thread(t, &c.g)
	go func() {
		defer close(c.done)
		defer close(c.req)
		aborted := false
		seq(func(op event.Op) bool {
			if aborted {
				return false
			}
			c.req <- op
			gr := <-c.grant
			aborted = gr.abort
			c.g.res = gr.val
			return !aborted
		})
	}()
	return c
}

// thread wraps body t as the iterator both start paths run. It yields
// the body's visible operations; a false yield (the scheduler aborted
// the thread) unwinds the body with abortSignal at its current
// operation, and again at every later one should the body swallow the
// signal. A genuine panic is recovered and announced as the thread's
// final visible operation instead of crashing the process — a
// crashing schedule is a finding, not a harness failure.
func (p *Program) thread(t event.ThreadID, g *G) iter.Seq[event.Op] {
	body := p.bodies[t]
	g.id = t
	return func(yield func(event.Op) bool) {
		g.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					g.panicMsg = fmt.Sprint(r)
					yield(event.Op{Kind: event.KindPanic})
				}
			}
		}()
		body(g)
	}
}

type abortSignal struct{}

// coroutine adapts an iter.Pull pair to the model.Coroutine peek/resume
// protocol: Peek runs the body to its next visible operation, Resume
// only stores the result the body reads when that operation's yield
// returns.
type coroutine struct {
	next    func() (event.Op, bool)
	stop    func()
	g       G
	pending event.Op
	have    bool
	closed  bool
}

var (
	_ model.Abortable     = (*coroutine)(nil)
	_ model.PanicMessager = (*coroutine)(nil)
)

// PanicMessage implements model.PanicMessager.
func (c *coroutine) PanicMessage() string { return c.g.panicMsg }

// Peek implements model.Coroutine. It returns once the body announces
// its next visible operation or terminates; the wait is bounded by the
// thread's local computation, never by another thread.
func (c *coroutine) Peek() (event.Op, bool) {
	if c.closed {
		return event.Op{}, false
	}
	if c.have {
		return c.pending, true
	}
	op, ok := c.next()
	if !ok {
		c.closed = true
		return event.Op{}, false
	}
	c.pending = op
	c.have = true
	return op, true
}

// Resume implements model.Coroutine.
func (c *coroutine) Resume(result int64) {
	if !c.have {
		panic("goharness: Resume without pending operation")
	}
	c.have = false
	c.g.res = result
}

// Abort implements model.Abortable: it unwinds the body at its current
// visible operation (a body never peeked never runs at all) and
// returns once the body has exited, so abandoned executions leak
// nothing.
func (c *coroutine) Abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.have = false
	c.stop()
}

type grant struct {
	val   int64
	abort bool
}

// stallCoroutine adapts the channel handshake of StartStall to the
// model.Coroutine peek/resume protocol, with the watchdog's timed
// variants of Peek and Abort.
type stallCoroutine struct {
	req     chan event.Op
	grant   chan grant
	done    chan struct{}
	g       G
	pending event.Op
	have    bool
	closed  bool
	// diverged is set by the stall watchdog (PeekTimeout/AbortTimeout
	// giving up): the goroutine is stuck in local computation and is
	// abandoned — never granted, never waited for again. The write
	// happens on the scheduler side, which is the only side that ever
	// reads it, so no synchronisation is needed. If the body later
	// panics, nobody reads its announcement; the goroutine then parks
	// on the send forever, which is exactly the abandoned-goroutine
	// contract divergence already implies.
	diverged bool
}

var (
	_ model.Abortable     = (*stallCoroutine)(nil)
	_ model.TimedPeeker   = (*stallCoroutine)(nil)
	_ model.TimedAborter  = (*stallCoroutine)(nil)
	_ model.PanicMessager = (*stallCoroutine)(nil)
)

// PanicMessage implements model.PanicMessager. The body writes the
// message before the KindPanic announcement, and the channel handshake
// orders it before the scheduler reads it.
func (c *stallCoroutine) PanicMessage() string { return c.g.panicMsg }

// Peek implements model.Coroutine. It blocks until the thread goroutine
// announces its next visible operation or terminates.
func (c *stallCoroutine) Peek() (event.Op, bool) {
	if c.closed {
		return event.Op{}, false
	}
	if c.diverged {
		return event.Op{Kind: event.KindDiverge}, true
	}
	if c.have {
		return c.pending, true
	}
	op, ok := <-c.req
	if !ok {
		c.closed = true
		return event.Op{}, false
	}
	c.pending = op
	c.have = true
	return op, true
}

// PeekTimeout implements model.TimedPeeker: Peek, but a thread body
// that stays silent for d is declared diverged — the goroutine is
// abandoned mid-computation (it holds no harness resources; it parks
// on its next announcement, which nobody will ever read) and the
// sentinel divergence op is announced in its stead.
func (c *stallCoroutine) PeekTimeout(d time.Duration) (event.Op, bool) {
	if c.closed {
		return event.Op{}, false
	}
	if c.diverged {
		return event.Op{Kind: event.KindDiverge}, true
	}
	if c.have {
		return c.pending, true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case op, ok := <-c.req:
		if !ok {
			c.closed = true
			return event.Op{}, false
		}
		c.pending = op
		c.have = true
		return op, true
	case <-timer.C:
		c.diverged = true
		return event.Op{Kind: event.KindDiverge}, true
	}
}

// Resume implements model.Coroutine.
func (c *stallCoroutine) Resume(result int64) {
	if !c.have {
		panic("goharness: Resume without pending operation")
	}
	c.have = false
	c.grant <- grant{val: result}
}

// Abort implements model.Abortable: it unwinds the thread goroutine at
// its current visible operation and waits for it to exit.
func (c *stallCoroutine) Abort() {
	if c.closed || c.diverged {
		return
	}
	if !c.have {
		// The goroutine is either about to announce an operation
		// or about to terminate; consume whichever happens.
		op, ok := <-c.req
		if !ok {
			c.closed = true
			return
		}
		c.pending = op
		c.have = true
	}
	c.have = false
	c.grant <- grant{abort: true}
	<-c.done
	c.closed = true
}

// AbortTimeout implements model.TimedAborter: Abort, but with d of
// total wall-clock budget. A body that never reaches its next
// scheduling point — or swallows every abort with its own recover and
// keeps computing — is fenced as diverged and abandoned instead of
// hanging the scheduler.
func (c *stallCoroutine) AbortTimeout(d time.Duration) {
	if c.closed || c.diverged {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	if !c.have {
		select {
		case op, ok := <-c.req:
			if !ok {
				c.closed = true
				return
			}
			c.pending = op
			c.have = true
		case <-timer.C:
			c.diverged = true
			return
		}
	}
	c.have = false
	select {
	case c.grant <- grant{abort: true}:
	case <-timer.C:
		c.diverged = true
		return
	}
	select {
	case <-c.done:
		c.closed = true
	case <-timer.C:
		c.diverged = true
	}
}

// G is the handle a thread body uses for all visible operations.
type G struct {
	// yield announces an operation and reports whether the scheduler
	// granted it; the granted result is then in res.
	yield    func(event.Op) bool
	res      int64
	id       event.ThreadID
	panicMsg string
}

// ID returns the thread's identifier.
func (g *G) ID() event.ThreadID { return g.id }

func (g *G) visible(op event.Op) int64 {
	if !g.yield(op) {
		panic(abortSignal{})
	}
	return g.res
}

// Read returns the current value of v (a visible operation).
func (g *G) Read(v Var) int64 {
	return g.visible(event.Op{Kind: event.KindRead, Obj: int32(v)})
}

// Write stores x into v (a visible operation).
func (g *G) Write(v Var, x int64) {
	g.visible(event.Op{Kind: event.KindWrite, Obj: int32(v), Val: x})
}

// Lock acquires m, blocking while another thread holds it.
func (g *G) Lock(m Mutex) {
	g.visible(event.Op{Kind: event.KindLock, Obj: int32(m)})
}

// Unlock releases m; releasing a mutex the thread does not hold is
// recorded as a failure by the machine.
func (g *G) Unlock(m Mutex) {
	g.visible(event.Op{Kind: event.KindUnlock, Obj: int32(m)})
}

// Spawn starts the declared thread t.
func (g *G) Spawn(t ThreadRef) {
	g.visible(event.Op{Kind: event.KindSpawn, Obj: int32(t)})
}

// Join blocks until thread t has terminated.
func (g *G) Join(t ThreadRef) {
	g.visible(event.Op{Kind: event.KindJoin, Obj: int32(t)})
}

// Send sends x on channel c (a visible operation). It blocks while the
// channel is full — unbuffered: until a receiver is pending — and
// panics if the channel is closed, which the machine records as a
// panic violation and terminates this thread.
func (g *G) Send(c Chan, x int64) {
	g.visible(event.Op{Kind: event.KindSend, Obj: int32(c), Val: x})
}

// Recv receives from channel c (a visible operation), blocking while
// the channel is empty and open. On a closed empty channel it returns
// (0, false); otherwise the drained value and true.
func (g *G) Recv(c Chan) (int64, bool) {
	return event.UnpackRecvResult(g.visible(event.Op{Kind: event.KindRecv, Obj: int32(c)}))
}

// TryRecv is a non-blocking receive — a single-case select with a
// default. It returns (value, true) when a value was ready and
// (0, false) otherwise (including a closed empty channel).
func (g *G) TryRecv(c Chan) (int64, bool) {
	r := g.visible(event.Op{
		Kind: event.KindSelect, Obj: -1,
		Val: event.MakeSelectVal(1<<int32(c), true),
	})
	_, val, ok := event.UnpackSelectResult(r)
	return val, ok
}

// Close closes channel c (a visible operation). Closing an
// already-closed channel panics, like Go.
func (g *G) Close(c Chan) {
	g.visible(event.Op{Kind: event.KindClose, Obj: int32(c)})
}

// Select blocks until one of the case channels is ready (non-empty or
// closed) and receives from it — one visible operation. It returns the
// index into cs of the chosen case, the received value, and the ok
// flag (false when the chosen channel was closed and empty). The
// machine commits deterministically to the lowest-numbered ready
// channel; case nondeterminism is explored through arrival
// interleavings. Case channels must be distinct.
func (g *G) Select(cs ...Chan) (idx int, val int64, ok bool) {
	ch, val, ok := g.selectOn(cs, false)
	for i, c := range cs {
		if int32(c) == ch {
			return i, val, ok
		}
	}
	panic(fmt.Sprintf("goharness: select committed to undeclared case channel c%d", ch))
}

// TrySelect is Select with a default case: when no case channel is
// ready it returns idx = -1 immediately instead of blocking.
func (g *G) TrySelect(cs ...Chan) (idx int, val int64, ok bool) {
	ch, val, ok := g.selectOn(cs, true)
	if ch < 0 {
		return -1, 0, false
	}
	for i, c := range cs {
		if int32(c) == ch {
			return i, val, ok
		}
	}
	panic(fmt.Sprintf("goharness: select committed to undeclared case channel c%d", ch))
}

func (g *G) selectOn(cs []Chan, hasDefault bool) (int32, int64, bool) {
	if len(cs) == 0 {
		panic("goharness: select with no cases")
	}
	var mask int64
	for _, c := range cs {
		if c < 0 || c >= event.MaxSelectChans {
			panic(fmt.Sprintf("goharness: select case channel c%d out of mask range", c))
		}
		mask |= 1 << int32(c)
	}
	r := g.visible(event.Op{Kind: event.KindSelect, Obj: -1, Val: event.MakeSelectVal(mask, hasDefault)})
	return event.UnpackSelectResult(r)
}

// Assert records ok as a visible assertion; a false value is a safety
// violation the exploration engines report.
func (g *G) Assert(ok bool) {
	v := int64(0)
	if ok {
		v = 1
	}
	g.visible(event.Op{Kind: event.KindAssert, Val: v})
}

// Assertf is Assert with a formatted annotation for local debugging;
// the message is evaluated eagerly but only used when the assertion
// fails.
func (g *G) Assertf(ok bool, format string, args ...any) {
	if !ok {
		// The machine records the failure; the message aids local
		// debugging through the panic path of tests.
		_ = fmt.Sprintf(format, args...)
	}
	g.Assert(ok)
}
