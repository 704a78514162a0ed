package mpimon

import (
	"sync"

	"mpimon/internal/monitoring"
)

// This file is the faithful C-style surface of the paper's library: flat
// MPI_M_* functions returning integer error codes (Success == 0, the
// MPI_M_* constants otherwise), with MPI_M_ALL_MSID addressing every live
// session. The C API keeps per-process global state; since all simulated
// processes share one Go address space, the "current process" is passed
// explicitly and the environment registry is keyed by it.
//
// Special argument values mirror the paper's constants: pass nil output
// slices for MPI_M_DATA_IGNORE and nil int pointers for
// MPI_M_INT_IGNORE.

// Numeric error codes (the values of the paper's error constants).
const (
	Success                 = monitoring.Success
	ErrCodeInternalFail     = monitoring.CodeInternalFail
	ErrCodeMPITFail         = monitoring.CodeMPITFail
	ErrCodeMissingInit      = monitoring.CodeMissingInit
	ErrCodeSessionActive    = monitoring.CodeSessionStillActive
	ErrCodeSessionNotSusp   = monitoring.CodeSessionNotSuspended
	ErrCodeInvalidMsid      = monitoring.CodeInvalidMsid
	ErrCodeSessionOverflow  = monitoring.CodeSessionOverflow
	ErrCodeMultipleCall     = monitoring.CodeMultipleCall
	ErrCodeInvalidRoot      = monitoring.CodeInvalidRoot
	ErrCodeInvalidFlagsOnly = monitoring.CodeInvalidFlags
)

// Numeric codes of the fault-tolerance error classes, continuing the
// MPI_M_* sequence above (the paper's API predates ULFM-style recovery, so
// these are this library's extension).
const (
	ErrCodeProcFailed = 11
	ErrCodeRevoked    = 12
	ErrCodeTimeout    = 13
	ErrCodeAborted    = 14
	ErrCodeUnknown    = 15
)

// errClassCodes maps every ErrorClass to its C return code. The monitoring
// classes keep their MPI_M_* values; the fault classes use the extension
// codes above.
var errClassCodes = map[ErrorClass]int{
	ErrClassNone:                Success,
	ErrClassProcFailed:          ErrCodeProcFailed,
	ErrClassRevoked:             ErrCodeRevoked,
	ErrClassTimeout:             ErrCodeTimeout,
	ErrClassAborted:             ErrCodeAborted,
	ErrClassInternalFail:        ErrCodeInternalFail,
	ErrClassMPITFail:            ErrCodeMPITFail,
	ErrClassMissingInit:         ErrCodeMissingInit,
	ErrClassSessionStillActive:  ErrCodeSessionActive,
	ErrClassSessionNotSuspended: ErrCodeSessionNotSusp,
	ErrClassInvalidMsid:         ErrCodeInvalidMsid,
	ErrClassSessionOverflow:     ErrCodeSessionOverflow,
	ErrClassMultipleCall:        ErrCodeMultipleCall,
	ErrClassInvalidRoot:         ErrCodeInvalidRoot,
	ErrClassInvalidFlags:        ErrCodeInvalidFlagsOnly,
	ErrClassUnknown:             ErrCodeUnknown,
}

// Code returns the numeric C return code of the class.
func (c ErrorClass) Code() int {
	if code, ok := errClassCodes[c]; ok {
		return code
	}
	return ErrCodeUnknown
}

// ErrCodeOf maps any library error to its numeric C return code: Success
// for nil, the class code otherwise (see ClassOf).
func ErrCodeOf(err error) int { return ClassOf(err).Code() }

var capi struct {
	mu   sync.Mutex
	envs map[*Proc]*Env
}

func capiEnv(p *Proc) (*Env, int) {
	capi.mu.Lock()
	defer capi.mu.Unlock()
	env, ok := capi.envs[p]
	if !ok {
		return nil, ErrCodeMissingInit
	}
	return env, Success
}

// MPIMInit sets the monitoring environment of process p (MPI_M_init). A
// second call without MPI_M_finalize returns MPI_M_MULTIPLE_CALL.
func MPIMInit(p *Proc) int {
	capi.mu.Lock()
	defer capi.mu.Unlock()
	if capi.envs == nil {
		capi.envs = make(map[*Proc]*Env)
	}
	if _, dup := capi.envs[p]; dup {
		return ErrCodeMultipleCall
	}
	env, err := monitoring.Init(p)
	if err != nil {
		return ErrCodeOf(err)
	}
	capi.envs[p] = env
	return Success
}

// MPIMFinalize tears the environment down (MPI_M_finalize).
func MPIMFinalize(p *Proc) int {
	capi.mu.Lock()
	env, ok := capi.envs[p]
	capi.mu.Unlock()
	if !ok {
		return ErrCodeMissingInit
	}
	if err := env.Finalize(); err != nil {
		return ErrCodeOf(err)
	}
	capi.mu.Lock()
	delete(capi.envs, p)
	capi.mu.Unlock()
	return Success
}

// MPIMStart creates and starts a monitoring session on comm (MPI_M_start);
// the identifier is written to *msid.
func MPIMStart(comm *Comm, msid *Msid) int {
	env, code := capiEnv(comm.Proc())
	if code != Success {
		return code
	}
	s, err := env.Start(comm)
	if err != nil {
		return ErrCodeOf(err)
	}
	*msid = s.ID()
	return Success
}

// sessionsFor resolves a session argument, expanding AllMsid; state-
// inapplicable sessions are skipped by the per-operation handlers.
func sessionsFor(p *Proc, msid Msid) ([]*Session, int) {
	env, code := capiEnv(p)
	if code != Success {
		return nil, code
	}
	if msid == AllMsid {
		return env.Sessions(), Success
	}
	s, err := env.Get(msid)
	if err != nil {
		return nil, ErrCodeOf(err)
	}
	return []*Session{s}, Success
}

// forEach applies op to the selected sessions. With AllMsid, sessions for
// which the operation does not apply in their current state are skipped, so
// "suspend everything" works with a mix of states.
func forEach(p *Proc, msid Msid, skip func(*Session) bool, op func(*Session) error) int {
	ss, code := sessionsFor(p, msid)
	if code != Success {
		return code
	}
	all := msid == AllMsid
	for _, s := range ss {
		if all && skip != nil && skip(s) {
			continue
		}
		if err := op(s); err != nil {
			return ErrCodeOf(err)
		}
	}
	return Success
}

// MPIMSuspend suspends a session, making its data available
// (MPI_M_suspend). msid may be MPI_M_ALL_MSID.
func MPIMSuspend(p *Proc, msid Msid) int {
	return forEach(p, msid,
		func(s *Session) bool { return s.State() != SessionActive },
		(*Session).Suspend)
}

// MPIMContinue restarts a suspended session (MPI_M_continue). msid may be
// MPI_M_ALL_MSID.
func MPIMContinue(p *Proc, msid Msid) int {
	return forEach(p, msid,
		func(s *Session) bool { return s.State() != SessionSuspended },
		(*Session).Continue)
}

// MPIMReset zeroes a suspended session's data (MPI_M_reset). msid may be
// MPI_M_ALL_MSID.
func MPIMReset(p *Proc, msid Msid) int {
	return forEach(p, msid,
		func(s *Session) bool { return s.State() != SessionSuspended },
		(*Session).Reset)
}

// MPIMFree releases a suspended session (MPI_M_free). msid may be
// MPI_M_ALL_MSID.
func MPIMFree(p *Proc, msid Msid) int {
	return forEach(p, msid,
		func(s *Session) bool { return s.State() != SessionSuspended },
		(*Session).Free)
}

// MPIMGetInfo writes the provided thread level and the data array size
// (MPI_M_get_info); either pointer may be nil (MPI_M_INT_IGNORE). Unlike
// the other functions it may be called by any subset of the communicator.
func MPIMGetInfo(p *Proc, msid Msid, provided, arraySize *int) int {
	if msid == AllMsid {
		return ErrCodeInvalidMsid
	}
	ss, code := sessionsFor(p, msid)
	if code != Success {
		return code
	}
	info, err := ss[0].GetInfo()
	if err != nil {
		return ErrCodeOf(err)
	}
	if provided != nil {
		*provided = info.Provided
	}
	if arraySize != nil {
		*arraySize = info.ArraySize
	}
	return Success
}

// MPIMGetData copies the process's per-destination message counts and byte
// counts into the given slices (MPI_M_get_data); either may be nil
// (MPI_M_DATA_IGNORE), otherwise its length must be the session's array
// size. flags selects the communication classes.
func MPIMGetData(p *Proc, msid Msid, msgCounts, msgSizes []uint64, flags Flags) int {
	if msid == AllMsid {
		return ErrCodeInvalidMsid
	}
	ss, code := sessionsFor(p, msid)
	if code != Success {
		return code
	}
	counts, bytes, err := ss[0].Data(flags)
	if err != nil {
		return ErrCodeOf(err)
	}
	if msgCounts != nil {
		if len(msgCounts) != len(counts) {
			return ErrCodeInternalFail
		}
		copy(msgCounts, counts)
	}
	if msgSizes != nil {
		if len(msgSizes) != len(bytes) {
			return ErrCodeInternalFail
		}
		copy(msgSizes, bytes)
	}
	return Success
}

// MPIMAllgatherData gathers the full count and byte matrices (row-major)
// to every member (MPI_M_allgather_data); nil slices are DATA_IGNORE.
func MPIMAllgatherData(p *Proc, msid Msid, matCounts, matSizes []uint64, flags Flags) int {
	if msid == AllMsid {
		return ErrCodeInvalidMsid
	}
	ss, code := sessionsFor(p, msid)
	if code != Success {
		return code
	}
	counts, bytes, err := ss[0].AllgatherData(flags)
	if err != nil {
		return ErrCodeOf(err)
	}
	return copyMatrices(matCounts, matSizes, counts, bytes)
}

// MPIMRootgatherData gathers the matrices to root only
// (MPI_M_rootgather_data); non-root members may pass nil buffers.
func MPIMRootgatherData(p *Proc, msid Msid, root int, matCounts, matSizes []uint64, flags Flags) int {
	if msid == AllMsid {
		return ErrCodeInvalidMsid
	}
	ss, code := sessionsFor(p, msid)
	if code != Success {
		return code
	}
	counts, bytes, err := ss[0].RootgatherData(root, flags)
	if err != nil {
		return ErrCodeOf(err)
	}
	if ss[0].Comm().Rank() != root {
		return Success
	}
	return copyMatrices(matCounts, matSizes, counts, bytes)
}

func copyMatrices(matCounts, matSizes []uint64, counts, bytes []uint64) int {
	if matCounts != nil {
		if len(matCounts) != len(counts) {
			return ErrCodeInternalFail
		}
		copy(matCounts, counts)
	}
	if matSizes != nil {
		if len(matSizes) != len(bytes) {
			return ErrCodeInternalFail
		}
		copy(matSizes, bytes)
	}
	return Success
}

// MPIMFlush writes each process's data to filename.[rank].prof
// (MPI_M_flush).
func MPIMFlush(p *Proc, msid Msid, filename string, flags Flags) int {
	if msid == AllMsid {
		return ErrCodeInvalidMsid
	}
	ss, code := sessionsFor(p, msid)
	if code != Success {
		return code
	}
	if err := ss[0].Flush(filename, flags); err != nil {
		return ErrCodeOf(err)
	}
	return Success
}

// MPIMRootflush gathers at root and writes filename_counts.[rank].prof and
// filename_sizes.[rank].prof (MPI_M_rootflush).
func MPIMRootflush(p *Proc, msid Msid, root int, filename string, flags Flags) int {
	if msid == AllMsid {
		return ErrCodeInvalidMsid
	}
	ss, code := sessionsFor(p, msid)
	if code != Success {
		return code
	}
	if err := ss[0].RootFlush(root, filename, flags); err != nil {
		return ErrCodeOf(err)
	}
	return Success
}
