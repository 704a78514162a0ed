package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mpimon/internal/netsim"
)

func TestRequestTest(t *testing.T) {
	w := newTestWorld(t, 2)
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Proc().Compute(time.Millisecond)
			return c.Send(1, 0, []byte{42})
		}
		req, err := c.Irecv(0, 0, make([]byte, 1))
		if err != nil {
			return err
		}
		// The sender may or may not have run yet; either way Wait must
		// deliver, and Test afterwards must keep reporting done.
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Size != 1 {
			return fmt.Errorf("status %+v", st)
		}
		if _, ok, _ := req.Test(); !ok {
			return errors.New("Test after completion should report done")
		}
		return nil
	})
}

func TestRequestTestSend(t *testing.T) {
	w := newTestWorld(t, 2, WithPlacement([]int{0, 4}))
	run(t, w, func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := c.Isend(1, 0, make([]byte, 1<<20)) // rendezvous size
			if err != nil {
				return err
			}
			// Injection takes virtual time; immediately after Isend the
			// clock has not reached freeAt.
			if _, ok, _ := req.Test(); ok {
				return errors.New("rendezvous send completed instantly")
			}
			c.Proc().Compute(10 * time.Millisecond)
			if _, ok, _ := req.Test(); !ok {
				return errors.New("send not complete after the injection window")
			}
			return nil
		}
		_, err := c.Recv(0, 0, make([]byte, 1<<20))
		return err
	})
}

func TestWaitany(t *testing.T) {
	w := newTestWorld(t, 3)
	run(t, w, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			r1, err := c.Irecv(1, 1, make([]byte, 1))
			if err != nil {
				return err
			}
			r2, err := c.Irecv(2, 2, make([]byte, 1))
			if err != nil {
				return err
			}
			seen := map[int]bool{}
			reqs := []*Request{r1, r2}
			for len(seen) < 2 {
				i, st, err := Waitany(reqs...)
				if err != nil {
					return err
				}
				if seen[i] {
					return fmt.Errorf("Waitany returned index %d twice", i)
				}
				seen[i] = true
				if st.Tag != i+1 {
					return fmt.Errorf("request %d has tag %d", i, st.Tag)
				}
				reqs[i] = nil
			}
			if _, _, err := Waitany(); err == nil {
				return errors.New("empty Waitany should fail")
			}
			return nil
		case 1:
			c.Proc().Compute(2 * time.Millisecond)
			return c.Send(0, 1, []byte{1})
		default:
			return c.Send(0, 2, []byte{2})
		}
	})
}

// TestPollingLoopCompletes runs a rank that polls for a message its peer
// sends only after 1 ms of compute, once with a Test loop on an Irecv and
// once with an Iprobe loop. The event engine switches ranks only where one
// parks, so a poll that misses must let the sender run, or the loop spins
// forever. On the event engine two runs must end on the same clocks.
func TestPollingLoopCompletes(t *testing.T) {
	loops := []struct {
		name string
		poll func(c *Comm) (Status, error)
	}{
		{"test", func(c *Comm) (Status, error) {
			req, err := c.Irecv(1, 0, make([]byte, 8))
			if err != nil {
				return Status{}, err
			}
			for {
				if st, ok, err := req.Test(); ok || err != nil {
					return st, err
				}
			}
		}},
		{"iprobe", func(c *Comm) (Status, error) {
			for {
				if _, ok, err := c.Iprobe(1, 0); err != nil {
					return Status{}, err
				} else if ok {
					return c.Recv(1, 0, make([]byte, 8))
				}
			}
		}},
	}
	for _, l := range loops {
		for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
			t.Run(l.name+"/"+eng.Name(), func(t *testing.T) {
				clocks := func() [2]time.Duration {
					w, err := NewWorld(netsim.PlaFRIM(1), 2, WithEngine(eng))
					if err != nil {
						t.Fatal(err)
					}
					if err := w.RunWithTimeout(10*time.Second, func(c *Comm) error {
						if c.Rank() == 1 {
							c.Proc().Compute(time.Millisecond)
							return c.Send(0, 0, make([]byte, 8))
						}
						st, err := l.poll(c)
						if err == nil && (st.Source != 1 || st.Size != 8) {
							err = fmt.Errorf("status %+v", st)
						}
						return err
					}); err != nil {
						t.Fatal(err)
					}
					return [2]time.Duration{w.Proc(0).Clock(), w.Proc(1).Clock()}
				}
				first := clocks()
				if first[0] <= time.Millisecond {
					t.Errorf("receiver ends at %v, before the message sent at 1ms can arrive", first[0])
				}
				if eng == EngineEvent {
					if again := clocks(); again != first {
						t.Errorf("clocks %v, then %v", first, again)
					}
				}
			})
		}
	}
}

// TestPollingLoopEndsOnAbort: when another rank fails, a rank polling with
// Test or Iprobe gets ErrAborted, as a blocked receive would, instead of
// polling forever.
func TestPollingLoopEndsOnAbort(t *testing.T) {
	polls := map[string]func(c *Comm) (bool, error){
		"test": func(c *Comm) (bool, error) {
			req, err := c.Irecv(1, 0, nil)
			if err != nil {
				return false, err
			}
			_, ok, err := req.Test()
			return ok, err
		},
		"iprobe": func(c *Comm) (bool, error) {
			_, ok, err := c.Iprobe(1, 0)
			return ok, err
		},
	}
	boom := errors.New("rank 1 fails")
	for name, poll := range polls {
		for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
			w := newTestWorld(t, 2, WithEngine(eng))
			var got error
			err := w.RunWithTimeout(10*time.Second, func(c *Comm) error {
				if c.Rank() == 1 {
					return boom
				}
				for {
					if ok, err := poll(c); ok || err != nil {
						got = err
						return err
					}
				}
			})
			if !errors.Is(err, boom) || !errors.Is(got, ErrAborted) {
				t.Errorf("%s/%s: run %v, poll %v; want the failure and ErrAborted", name, eng.Name(), err, got)
			}
		}
	}
}
