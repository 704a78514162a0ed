package mpi

import (
	"fmt"
)

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
		return c.sendCopyOn(ctx, root, tagGast, send)
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
		if _, err := c.recvOn(ctx, i, tagGast, buf[:st.Size]); err != nil {
			return err
		}
		if err := deliver(i, buf[:st.Size]); err != nil {
			return err
		}
	}
	return nil
}
