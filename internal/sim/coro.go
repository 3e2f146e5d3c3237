//go:build go1.23

// The constraint above does not select between implementations (there is no
// other): it lifts this one file to the go1.23 language version so it may
// import iter while go.mod stays at 1.22 for the benchmark module.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// start makes p a coroutine running fn. Nothing of fn runs until the
// dispatch loop first calls p.next; a switch in or out is a direct
// goroutine-to-goroutine transfer on the calling thread.
func (p *Proc) start(fn func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
}

// exit is the deferred tail of every process body. iter.Pull would re-raise
// a panic of the body in whoever called next, so it is recovered here, where
// the stack is still the process's own, and reported as the run's error with
// the process name. Close calls it directly (recover is then a no-op) for a
// process whose body never began.
func (p *Proc) exit() {
	e := p.env
	if r := recover(); r != nil {
		if _, killed := r.(procKilled); !killed && e.err == nil {
			e.err = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
	}
	p.done = true
	e.live--
}
