package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// poolLedger follows every pooled message from getMsg to release through
// bufpool.go's poolTrace seam, so a test can assert that each message drawn
// is released exactly once.
type poolLedger struct {
	mu   sync.Mutex
	live map[*message]bool // drawn and not yet released
	errs []string
}

// tracePool installs a ledger until the test ends. Tests in this package do
// not run in parallel, so the ledger sees this test's messages only.
func tracePool(t *testing.T) *poolLedger {
	l := &poolLedger{live: map[*message]bool{}}
	poolTrace = func(m *message, drawn bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		switch {
		case drawn && l.live[m]:
			l.errs = append(l.errs, fmt.Sprintf("message %p (%d bytes) drawn while live: it was released twice", m, m.size))
		case drawn:
			l.live[m] = true
		case !l.live[m]:
			l.errs = append(l.errs, fmt.Sprintf("message %p (%d bytes) released twice or never drawn", m, m.size))
		default:
			delete(l.live, m)
		}
	}
	t.Cleanup(func() { poolTrace = nil })
	return l
}

// requireBalanced fails the test unless every message drawn since tracePool
// was released exactly once, apart from those still queued at a rank of w —
// sent, never received, and so owned by nobody who could release them.
func (l *poolLedger) requireBalanced(t *testing.T, w *World) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.errs {
		t.Error(e)
	}
	queued := 0
	for _, p := range w.procs {
		queued += p.queue.pending()
	}
	if len(l.live) != queued {
		t.Errorf("%d messages drawn and not released, %d still queued", len(l.live), queued)
	}
}
