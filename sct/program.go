package sct

import "repro/internal/goharness"

// Program is a program under test built from ordinary Go closures:
// declare shared variables, mutexes and threads, then hand it to
// [Run] (it implements [Source]). Each thread runs as a coroutine
// that announces its visible operations through the [G] handle and
// resumes only when the tester grants them, so the tester fully
// controls the interleaving of visible operations. With
// [WithStallTimeout] armed, threads run as goroutines behind a channel
// handshake instead, which the watchdog can abandon on a timer; the
// explored schedules are the same on both paths.
//
// Thread bodies must be deterministic: all cross-thread communication
// goes through the harness (G.Read/G.Write/G.Lock/...), and bodies
// must not consult ambient nondeterminism (time, map iteration order,
// mutable package state shared across executions). A body must not
// call runtime.Goexit (t.FailNow, for example): the coroutine would
// forward it to the caller of Run.
type Program = goharness.Program

// G is the handle a thread body uses for all visible operations.
type G = goharness.G

// Body is the code of one thread.
type Body = goharness.Body

// Var names a shared variable of a program.
type Var = goharness.Var

// Mutex names a mutex of a program.
type Mutex = goharness.Mutex

// Chan names a channel of a program, declared with Program.Chan(name,
// cap): cap 0 is unbuffered (rendezvous), cap > 0 a FIFO ring. Thread
// bodies operate on it with G.Send/G.Recv/G.TryRecv/G.Close and
// multiplex with G.Select/G.TrySelect; send on closed and close of
// closed are panic violations, and all-threads-channel-blocked is a
// deadlock, exactly as in Go.
type Chan = goharness.Chan

// ThreadRef names a declared thread, for G.Spawn/G.Join.
type ThreadRef = goharness.ThreadRef

// NewProgram returns an empty program under test. Declare state with
// Var/VarInit/Mutex, threads with Thread (the first declared thread
// is the initial one; AutoStart makes all of them initially
// runnable), then explore it with [Run].
func NewProgram(name string) *Program {
	return goharness.New(name)
}
