package mpimon

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// runWorld is the shared test harness: np ranks on a 2-node machine.
func runWorld(t *testing.T, np int, fn func(c *Comm) error) *World {
	t.Helper()
	w, err := NewWorld(PlaFRIM(2), np)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunWithTimeout(time.Minute, fn); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCAPIListing2(t *testing.T) {
	// The paper's Listing 2, through the C-style API: monitor how a
	// barrier decomposes into point-to-point messages and flush at root.
	dir := t.TempDir()
	base := filepath.Join(dir, "barrier")
	runWorld(t, 8, func(c *Comm) error {
		p := c.Proc()
		if code := MPIMInit(p); code != Success {
			return fmt.Errorf("MPIMInit = %d", code)
		}
		var id Msid
		if code := MPIMStart(c, &id); code != Success {
			return fmt.Errorf("MPIMStart = %d", code)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if code := MPIMSuspend(p, id); code != Success {
			return fmt.Errorf("MPIMSuspend = %d", code)
		}
		if code := MPIMRootflush(p, id, 0, base, CollOnly); code != Success {
			return fmt.Errorf("MPIMRootflush = %d", code)
		}
		if code := MPIMFree(p, id); code != Success {
			return fmt.Errorf("MPIMFree = %d", code)
		}
		if code := MPIMFinalize(p); code != Success {
			return fmt.Errorf("MPIMFinalize = %d", code)
		}
		return nil
	})
	for _, sfx := range []string{"counts", "sizes"} {
		name := fmt.Sprintf("%s_%s.0.prof", base, sfx)
		if _, err := os.Stat(name); err != nil {
			t.Fatalf("rootflush did not create %s", name)
		}
	}
}

func TestCAPIErrorCodes(t *testing.T) {
	runWorld(t, 1, func(c *Comm) error {
		p := c.Proc()
		// Use before init.
		var id Msid
		if code := MPIMStart(c, &id); code != ErrCodeMissingInit {
			return fmt.Errorf("Start before init = %d, want %d", code, ErrCodeMissingInit)
		}
		if code := MPIMSuspend(p, 0); code != ErrCodeMissingInit {
			return fmt.Errorf("Suspend before init = %d", code)
		}
		if code := MPIMFinalize(p); code != ErrCodeMissingInit {
			return fmt.Errorf("Finalize before init = %d", code)
		}
		if code := MPIMInit(p); code != Success {
			return fmt.Errorf("init = %d", code)
		}
		// Double init.
		if code := MPIMInit(p); code != ErrCodeMultipleCall {
			return fmt.Errorf("double init = %d, want %d", code, ErrCodeMultipleCall)
		}
		if code := MPIMStart(c, &id); code != Success {
			return fmt.Errorf("start = %d", code)
		}
		// Bad msid.
		if code := MPIMSuspend(p, 999); code != ErrCodeInvalidMsid {
			return fmt.Errorf("bad msid = %d", code)
		}
		// Data before suspend.
		if code := MPIMGetData(p, id, nil, nil, AllComm); code != ErrCodeSessionNotSusp {
			return fmt.Errorf("data while active = %d", code)
		}
		// Finalize with an active session.
		if code := MPIMFinalize(p); code != ErrCodeSessionActive {
			return fmt.Errorf("finalize with active session = %d", code)
		}
		// Double suspend.
		if code := MPIMSuspend(p, id); code != Success {
			return fmt.Errorf("suspend = %d", code)
		}
		if code := MPIMSuspend(p, id); code != ErrCodeMultipleCall {
			return fmt.Errorf("double suspend = %d", code)
		}
		// AllMsid not allowed in data accessors.
		if code := MPIMGetData(p, AllMsid, nil, nil, AllComm); code != ErrCodeInvalidMsid {
			return fmt.Errorf("GetData(ALL_MSID) = %d", code)
		}
		if code := MPIMGetInfo(p, AllMsid, nil, nil); code != ErrCodeInvalidMsid {
			return fmt.Errorf("GetInfo(ALL_MSID) = %d", code)
		}
		// Bad root.
		if code := MPIMRootgatherData(p, id, 5, nil, nil, AllComm); code != ErrCodeInvalidRoot {
			return fmt.Errorf("bad root = %d", code)
		}
		if code := MPIMFinalize(p); code != Success {
			return fmt.Errorf("finalize = %d", code)
		}
		return nil
	})
}

func TestCAPIAllMsid(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		p := c.Proc()
		if code := MPIMInit(p); code != Success {
			return fmt.Errorf("init failed")
		}
		defer MPIMFinalize(p)
		var a, b Msid
		MPIMStart(c, &a)
		MPIMStart(c, &b)
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 10)); err != nil {
				return err
			}
		} else if _, err := c.Recv(0, 0, nil); err != nil {
			return err
		}
		// Suspend one, then ALL: the already-suspended one is skipped.
		if code := MPIMSuspend(p, a); code != Success {
			return fmt.Errorf("suspend a")
		}
		if code := MPIMSuspend(p, AllMsid); code != Success {
			return fmt.Errorf("suspend ALL should skip suspended sessions")
		}
		// Both sessions saw the message.
		info := 0
		if code := MPIMGetInfo(p, b, nil, &info); code != Success || info != 2 {
			return fmt.Errorf("getinfo: %d", info)
		}
		counts := make([]uint64, info)
		if code := MPIMGetData(p, b, counts, nil, P2POnly); code != Success {
			return fmt.Errorf("getdata failed")
		}
		if c.Rank() == 0 && counts[1] != 1 {
			return fmt.Errorf("session b counts = %v", counts)
		}
		// Reset and free everything at once.
		if code := MPIMReset(p, AllMsid); code != Success {
			return fmt.Errorf("reset ALL")
		}
		if code := MPIMGetData(p, a, counts, nil, P2POnly); code != Success {
			return fmt.Errorf("getdata after reset")
		}
		if counts[1] != 0 {
			return fmt.Errorf("reset ALL left data: %v", counts)
		}
		if code := MPIMFree(p, AllMsid); code != Success {
			return fmt.Errorf("free ALL")
		}
		return nil
	})
}

func TestCAPIGatherMatrices(t *testing.T) {
	const np = 4
	runWorld(t, np, func(c *Comm) error {
		p := c.Proc()
		MPIMInit(p)
		defer MPIMFinalize(p)
		var id Msid
		MPIMStart(c, &id)
		// Ring of one message each.
		next := (c.Rank() + 1) % np
		if err := c.Send(next, 0, make([]byte, 100)); err != nil {
			return err
		}
		if _, err := c.Recv((c.Rank()-1+np)%np, 0, nil); err != nil {
			return err
		}
		MPIMSuspend(p, id)
		matC := make([]uint64, np*np)
		matS := make([]uint64, np*np)
		if code := MPIMAllgatherData(p, id, matC, matS, AllComm); code != Success {
			return fmt.Errorf("allgather_data = %d", code)
		}
		for i := 0; i < np; i++ {
			j := (i + 1) % np
			if matC[i*np+j] != 1 || matS[i*np+j] != 100 {
				return fmt.Errorf("matrix wrong at (%d,%d): %d/%d", i, j, matC[i*np+j], matS[i*np+j])
			}
		}
		// Rootgather with DATA_IGNORE on counts.
		if code := MPIMRootgatherData(p, id, 1, nil, matS, AllComm); code != Success {
			return fmt.Errorf("rootgather_data = %d", code)
		}
		MPIMFree(p, id)
		return nil
	})
}

func TestCAPIContinueAndFlush(t *testing.T) {
	dir := t.TempDir()
	runWorld(t, 2, func(c *Comm) error {
		p := c.Proc()
		if code := MPIMInit(p); code != Success {
			return fmt.Errorf("init = %d", code)
		}
		defer MPIMFinalize(p)
		var id Msid
		MPIMStart(c, &id)
		if err := c.Barrier(); err != nil {
			return err
		}
		MPIMSuspend(p, id)
		if code := MPIMContinue(p, id); code != Success {
			return fmt.Errorf("continue = %d", code)
		}
		if code := MPIMContinue(p, id); code != ErrCodeMultipleCall {
			return fmt.Errorf("double continue = %d", code)
		}
		MPIMSuspend(p, id)
		base := filepath.Join(dir, fmt.Sprintf("flush-r%d", c.Rank()))
		if code := MPIMFlush(p, id, base, AllComm); code != Success {
			return fmt.Errorf("flush = %d", code)
		}
		if code := MPIMFlush(p, AllMsid, base, AllComm); code != ErrCodeInvalidMsid {
			return fmt.Errorf("flush ALL_MSID = %d", code)
		}
		if _, err := os.Stat(fmt.Sprintf("%s.%d.prof", base, c.Rank())); err != nil {
			return fmt.Errorf("flush file missing: %v", err)
		}
		return nil
	})
}

// TestCAPIFaultCodes: a gather on a revoked communicator returns the
// fault's own code, as ErrCodeOf maps the same error, not the MPIT failure
// the monitoring layer wraps around it.
func TestCAPIFaultCodes(t *testing.T) {
	runWorld(t, 4, func(c *Comm) error {
		p := c.Proc()
		if code := MPIMInit(p); code != Success {
			return fmt.Errorf("MPIMInit = %d", code)
		}
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		var id Msid
		if code := MPIMStart(sub, &id); code != Success {
			return fmt.Errorf("MPIMStart = %d", code)
		}
		if code := MPIMSuspend(p, id); code != Success {
			return fmt.Errorf("MPIMSuspend = %d", code)
		}
		if err := sub.Revoke(); err != nil {
			return err
		}
		if code := MPIMAllgatherData(p, id, nil, nil, AllComm); code != ErrCodeRevoked {
			return fmt.Errorf("MPIMAllgatherData on a revoked communicator = %d, want %d", code, ErrCodeRevoked)
		}
		if code := MPIMRootgatherData(p, id, 0, nil, nil, AllComm); code != ErrCodeRevoked {
			return fmt.Errorf("MPIMRootgatherData on a revoked communicator = %d, want %d", code, ErrCodeRevoked)
		}
		if code := MPIMFree(p, id); code != Success {
			return fmt.Errorf("MPIMFree = %d", code)
		}
		if code := MPIMFinalize(p); code != Success {
			return fmt.Errorf("MPIMFinalize = %d", code)
		}
		return nil
	})
}
