package eventlog

import (
	"sync"
	"time"
)

// Waiter parks one goroutine until any of a set of logs appends past the
// offset it was armed at, a stop channel closes, or a timeout fires: the
// tail-follow primitive behind long-poll fetch, the replica long-poll and
// trigger workers. Arm each dry log, then Wait once; a false Arm means
// data is readable (or the log closed), so read instead of waiting. Every
// registration is cancelled before Wait returns or Arm reports false. A
// callback collected by an append just before its cancel may still poke
// the waiter late: the next round's first Arm drops such a poke, and one
// landing after that costs at most one spurious wake (one empty re-read).
//
// One goroutine uses a Waiter at a time; loops own one, WaitReadable
// pools them, so a park allocates nothing once the armed slice has grown.
// The session pump stays on raw NotifyAppend callbacks: it needs to know
// which subscription woke, and it parks on a condition variable that also
// counts credit grants, so a channel-only waiter would make it re-probe
// every dry subscription on each wake.
type Waiter struct {
	// wake holds the one poke a parked waiter needs; poke, the callback
	// every armed log shares, sends it.
	wake  chan struct{}
	poke  func()
	armed []armedLog
}

type armedLog struct {
	log    *Log
	handle uint64
}

// NewWaiter returns a Waiter with nothing armed.
func NewWaiter() *Waiter {
	w := &Waiter{wake: make(chan struct{}, 1)}
	w.poke = func() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	return w
}

var waiterPool = sync.Pool{New: func() any { return NewWaiter() }}

// WaitReadable is the one-log long-poll on a pooled Waiter: it reports
// whether to read at offset again (data is readable there, or l closed
// and the read will say so), or false once wait lapses or stop closes.
func WaitReadable(l *Log, offset int64, wait time.Duration, stop <-chan struct{}) bool {
	w := waiterPool.Get().(*Waiter)
	defer waiterPool.Put(w)
	if !w.Arm(l, offset) {
		return true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	return w.Wait(stop, timer.C)
}

// Arm registers the waiter on l, to wake once data is readable at offset
// or l closes. If that is already so it returns false, with every earlier
// registration of the round cancelled.
func (w *Waiter) Arm(l *Log, offset int64) bool {
	if len(w.armed) == 0 {
		// A poke left over from the previous round: arming re-checks
		// every log, so dropping it loses no append.
		select {
		case <-w.wake:
		default:
		}
	}
	handle, registered := l.NotifyAppend(offset, w.poke)
	if !registered {
		w.disarm()
		return false
	}
	w.armed = append(w.armed, armedLog{l, handle})
	return true
}

// Wait parks until an armed log appends or closes (true), or stop closes
// or timeout fires (false); nil channels never fire.
func (w *Waiter) Wait(stop <-chan struct{}, timeout <-chan time.Time) bool {
	woken := false
	select {
	case <-w.wake:
		woken = true
	case <-stop:
	case <-timeout:
	}
	w.disarm()
	return woken
}

func (w *Waiter) disarm() {
	for _, a := range w.armed {
		a.log.CancelNotify(a.handle)
	}
	clear(w.armed) // drop the log references a pooled waiter would pin
	w.armed = w.armed[:0]
}
