package main

import (
	"fmt"
	"time"
)

// callTimeout bounds every blocking call into the program. A call that
// outlives it is a counted failure: the run stops and reports it rather
// than hanging.
const callTimeout = 30 * time.Second

// errHung marks a call the watchdog gave up on. The stack is then in an
// unknown state, so the run ends at the first one.
type errHung struct{ call string }

func (e errHung) Error() string {
	return fmt.Sprintf("%s did not return within %v", e.call, callTimeout)
}

// bounded runs f and waits at most callTimeout for it. On a timeout
// f's goroutine is abandoned; the process exits soon after.
func bounded(call string, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	t := time.NewTimer(callTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errHung{call}
	}
}
