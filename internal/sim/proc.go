//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: model code that blocks on virtual time.
// A Proc runs on a runtime coroutine (iter.Pull) and executes only while
// the event loop has switched to it; it switches back by sleeping,
// waiting, or finishing.
//
// The event loop always runs on the Run/RunUntil caller. An event that
// wakes a process calls resume, which switches to the process's
// coroutine; park switches back. A process whose own wakeup is the next
// event to dispatch pops it in park and continues without switching —
// the overwhelmingly common case in polling-heavy models.
type Proc struct {
	e    *Engine
	name string
	fn   func(p *Proc)
	co   *coro // nil until the start event binds a coroutine
	done bool

	// resumeF is the resume method value, built once at spawn so the hot
	// wake paths (Sleep, Signal.Broadcast, Resource.Release, ...) schedule
	// it without allocating a fresh closure per wakeup.
	resumeF func()
}

// coro is a pooled coroutine that runs process bodies one after another.
// When a body returns, the coroutine parks in its engine's idle pool and
// the next started process reuses it, so per-operation processes pay
// neither goroutine creation nor stack regrowth.
type coro struct {
	e     *Engine
	tag   int32 // -2 - index in Engine.coros: the tslot of events that resume it
	p     *Proc // the process being run, nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// procKilled is the sentinel panic value park raises when Shutdown stops
// a parked process; the coroutine recovers it and exits cleanly.
var procKilled = new(int)

// Spawn starts fn as a new process at the current virtual time. fn begins
// executing when the engine reaches the start event, in scheduling order
// relative to other events at the same instant.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute virtual time t.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	e.mustAlive("Spawn")
	p := &Proc{e: e, name: name, fn: fn}
	p.resumeF = p.resume
	e.procs++
	e.At(t, p.resumeF)
	return p
}

// coroutine takes an idle coroutine from the pool, most recently used
// first (its stack is warm and already grown), or creates one.
func (e *Engine) coroutine() *coro {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return c
	}
	c := &coro{e: e, tag: -2 - int32(len(e.coros))}
	c.next, c.stop = iter.Pull(c.body)
	e.coros = append(e.coros, c)
	return c
}

// body is the coroutine body: run the bound process, return to the idle
// pool, repeat until Shutdown stops the coroutine.
func (c *coro) body(yield func(struct{}) bool) {
	c.yield = yield
	for c.run() {
		c.p = nil
		c.e.idle = append(c.e.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the bound process's body and reports whether it returned.
// A kill unwinds it and reports false; any other panic propagates through
// the coroutine's next to the Run caller with its original value.
func (c *coro) run() (returned bool) {
	p := c.p
	defer func() {
		if r := recover(); r != nil && r != procKilled {
			panic(r)
		}
		p.done = true
		c.e.procs--
	}()
	p.fn(p)
	return true
}

// Name returns the process name (used in traces and panics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// resume switches from the event loop to p until p parks or finishes. The
// start event binds p to a coroutine. resume must be the last thing its
// event does: park's self-wake shortcut dispatches p's next wakeup before
// the waking event's code after resume would run.
//
//putget:hot
func (p *Proc) resume() {
	c := p.co
	if c == nil {
		c = p.e.coroutine()
		c.p = p
		p.co = c
	}
	c.next()
}

// wakeAt schedules p's resumption at t, tagged with p's coroutine so park
// can recognise it.
//
//putget:hot
func (p *Proc) wakeAt(t Time) {
	p.e.schedule(t, p.resumeF, p.co.tag)
}

// park returns control to the event loop until p's wakeup dispatches. If
// that wakeup is the next event the loop would run, park dispatches it
// itself — the same pop the loop would make — and returns without
// switching. A false yield means Shutdown stopped the coroutine: unwind.
//
//putget:hot
func (p *Proc) park() {
	e := p.e
	if len(e.events) > 0 {
		if ev := &e.events[0]; ev.tslot == p.co.tag && ev.at <= e.bound && !e.stopped {
			e.now = ev.at
			e.executed++
			e.popMin()
			return
		}
	}
	if !p.co.yield(struct{}{}) {
		panic(procKilled)
	}
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time but still yield, letting simultaneous events run.
//
//putget:hot
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.e.now.Add(d))
	p.park()
}

// SleepUntil suspends the process until absolute time t. If t is in the
// past it panics (causality violation).
//
//putget:hot
func (p *Proc) SleepUntil(t Time) {
	if t < p.e.now {
		panic(fmt.Sprintf("sim: %s sleeping until %v which is before now %v", p.name, t, p.e.now))
	}
	p.wakeAt(t)
	p.park()
}

// Yield lets all other events scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
