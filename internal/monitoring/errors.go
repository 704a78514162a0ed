package monitoring

import "errors"

// Sentinel errors, one per error constant of the paper's API (Sec. 4.3).
var (
	// ErrInternalFail reports an internal error (allocation or system
	// call failure) — MPI_M_INTERNAL_FAIL.
	ErrInternalFail = errors.New("monitoring: internal failure")
	// ErrMPITFail reports a failed MPI or MPI_T call — MPI_M_MPIT_FAIL.
	ErrMPITFail = errors.New("monitoring: MPI or MPI_T call failed")
	// ErrMissingInit reports use of the library before Init —
	// MPI_M_MISSING_INIT.
	ErrMissingInit = errors.New("monitoring: no call to init has been done")
	// ErrSessionStillActive reports a Finalize while at least one
	// session is still active — MPI_M_SESSION_STILL_ACTIVE.
	ErrSessionStillActive = errors.New("monitoring: at least one session has not been suspended")
	// ErrSessionNotSuspended reports a data access or reset on a session
	// that is not suspended — MPI_M_SESSION_NOT_SUSPENDED.
	ErrSessionNotSuspended = errors.New("monitoring: session has not been suspended")
	// ErrInvalidMsid reports an identifier that does not refer to a live
	// session, or ALL_MSID where it is not allowed — MPI_M_INVALID_MSID.
	ErrInvalidMsid = errors.New("monitoring: invalid monitoring session identifier")
	// ErrSessionOverflow reports that the maximum number of simultaneous
	// sessions has been reached — MPI_M_SESSION_OVERFLOW.
	ErrSessionOverflow = errors.New("monitoring: maximum number of sessions reached")
	// ErrMultipleCall reports a suspend of a suspended session, a
	// continue of an active one, or a second Init — MPI_M_MULTIPLE_CALL.
	ErrMultipleCall = errors.New("monitoring: state-changing call repeated without its converse")
	// ErrInvalidRoot reports an out-of-range root rank —
	// MPI_M_INVALID_ROOT.
	ErrInvalidRoot = errors.New("monitoring: invalid root rank")
	// ErrInvalidFlags reports a flags argument carrying bits outside
	// AllComm, or selecting no communication class at all.
	ErrInvalidFlags = errors.New("monitoring: invalid flags")
)

// Numeric error codes for the C-style API; Success is 0 as MPI_SUCCESS.
const (
	Success = iota
	CodeInternalFail
	CodeMPITFail
	CodeMissingInit
	CodeSessionStillActive
	CodeSessionNotSuspended
	CodeInvalidMsid
	CodeSessionOverflow
	CodeMultipleCall
	CodeInvalidRoot
	CodeInvalidFlags
)
