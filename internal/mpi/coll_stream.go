package mpi

import (
	"fmt"
)

// The collectives left as code rather than schedules (coll_sched.go) — this
// file's GatherStream, whose deliver callback must run on the root's own
// stack and never on the rank that advances a parked cursor, and
// AlltoallvBruck — reach the message layer through these explicit-context
// calls.

// sendMsgOn sends a message built with cloneMsg/ownedMsg/getMsg on an
// explicit context and takes ownership of it, like send.
func (c *Comm) sendMsgOn(ctx, dst, tag int, m *message) error {
	saved := c.ctx
	c.ctx = ctx
	err := c.send(dst, tag, m, c.p.class())
	c.ctx = saved
	return err
}

// recvMsgOn is recvMsg on an explicit context: the caller owns the message,
// reads m.data before it releases m, and never after.
func (c *Comm) recvMsgOn(ctx, src, tag int) (*message, error) {
	saved := c.ctx
	c.ctx = ctx
	m, err := c.recvMsg(src, tag)
	c.ctx = saved
	return m, err
}

// probeOn is Probe on an explicit context: it blocks until a matching
// message is available, advances the clock to its arrival and returns its
// Status without consuming it.
func (c *Comm) probeOn(ctx, src, tag int) (Status, error) {
	if c.p.world.ftOn.Load() {
		if err := c.preRecv("probe"); err != nil {
			return Status{}, err
		}
	}
	saved := c.ctx
	c.ctx = ctx
	m, err := c.p.queue.peek(c, src, tag)
	c.ctx = saved
	if err != nil {
		return Status{}, err
	}
	if m.arrival > c.p.clock {
		c.p.clock = m.arrival
	}
	return Status{Source: m.src, Tag: m.tag, Size: m.size}, nil
}

// GatherStream collects every member's variable-length block at root,
// handing each block to deliver(src, block) in ascending source order
// instead of concatenating them: root's transient memory is bounded by the
// largest single block, not by the sum — the point of the chunked
// monitoring gathers on large worlds. The block slice is reused between
// deliveries; deliver must copy anything it keeps. deliver is called on
// root only (other ranks may pass nil) and an error from it aborts the
// collective on root.
func (c *Comm) GatherStream(send []byte, root int, deliver func(src int, block []byte) error) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span("gatherstream")()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.gatherStream(send, root, deliver))
}

func (c *Comm) gatherStream(send []byte, root int, deliver func(src int, block []byte) error) error {
	n := len(c.group)
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	ctx := c.collCtx()
	if c.rank != root {
		return c.sendMsgOn(ctx, root, tagGast, cloneMsg(send))
	}
	if deliver == nil {
		return fmt.Errorf("mpi: gatherstream root needs a deliver function")
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if i == root {
			if err := deliver(i, send); err != nil {
				return err
			}
			continue
		}
		st, err := c.probeOn(ctx, i, tagGast)
		if err != nil {
			return err
		}
		if st.Size > len(buf) {
			buf = make([]byte, st.Size)
		}
		m, err := c.recvMsgOn(ctx, i, tagGast)
		if err != nil {
			return err
		}
		if _, err := m.deliver(buf[:st.Size]); err != nil {
			return err
		}
		if err := deliver(i, buf[:st.Size]); err != nil {
			return err
		}
	}
	return nil
}
