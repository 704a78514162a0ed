package mpi

import (
	"math/bits"
	"sync"
)

// Message recycling. Every point-to-point payload used to be cloned with a
// fresh allocation per send (the clone is what gives Send its buffered MPI
// semantics: the caller may reuse its buffer immediately). On messaging-
// bound workloads that made the allocator the hot path. Instead, messages
// and their payload arrays are recycled through size-class sync.Pools: a
// send draws a message whose backing array has the next power-of-two
// capacity, and the receive that consumes it returns it to the pool right
// after copy-out — the payload is never observable by the application, so
// the recycle point is exact.
//
// Messages with no payload array (SendN/skeleton traffic, zero-byte
// messages, and ownership-transfer sends where the caller hands over a
// buffer it will never touch again) recycle through a struct-only pool.
// Payloads above the largest class are allocated plainly and left to the
// garbage collector.
const (
	bufMinShift   = 6  // smallest pooled payload class: 64 B
	bufMaxShift   = 20 // largest pooled payload class: 1 MiB
	numBufClasses = bufMaxShift - bufMinShift + 1

	poolStruct = numBufClasses // struct-only pool: nil or caller-owned data
	poolNone   = -1            // not pooled (payload above the largest class)
)

var msgPools [numBufClasses + 1]sync.Pool

// poolTrace is a test seam (export_test.go): when set, it sees every message
// as it is drawn (true) and as it is released (false).
var poolTrace func(m *message, drawn bool)

// bufClass maps a payload size to its pool class: the smallest class whose
// capacity holds n bytes, poolStruct for empty payloads, poolNone when n
// exceeds the largest class.
func bufClass(n int) int {
	if n <= 0 {
		return poolStruct
	}
	if n > 1<<bufMaxShift {
		return poolNone
	}
	c := bits.Len(uint(n-1)) - bufMinShift
	if c < 0 {
		return 0
	}
	return c
}

// getMsg returns a message for a payload of size bytes, recycled when
// possible. With withData the message's data buffer has length size and
// undefined contents (the caller overwrites it); without, data is nil and
// the caller may attach a buffer whose ownership it gives up.
func getMsg(size int, withData bool) *message {
	cls := poolStruct
	if withData {
		cls = bufClass(size)
	}
	var m *message
	if cls == poolNone {
		m = &message{pclass: poolNone, size: size, data: make([]byte, size)}
	} else if v := msgPools[cls].Get(); v != nil {
		m = v.(*message)
		m.size = size
		if cls != poolStruct {
			m.data = m.data[:size]
		}
	} else {
		m = &message{pclass: int8(cls), size: size}
		if cls != poolStruct {
			m.data = make([]byte, size, 1<<(bufMinShift+cls))
		}
	}
	if poolTrace != nil {
		poolTrace(m, true)
	}
	return m
}

// cloneMsg returns a pooled message carrying a copy of data (buffered-send
// semantics without a per-send allocation).
func cloneMsg(data []byte) *message {
	m := getMsg(len(data), true)
	copy(m.data, data)
	return m
}

// ownedMsg wraps a buffer the caller hands over (it must not touch data
// again) in a pooled message shell; size is the logical payload size and
// data may be nil for size-only messages.
func ownedMsg(data []byte, size int) *message {
	m := getMsg(size, false)
	m.data = data
	return m
}

// release returns a consumed message to its pool. The caller must hold the
// only live reference: the message has been removed from its queue and its
// payload already copied out.
func (m *message) release() {
	if poolTrace != nil {
		poolTrace(m, false)
	}
	switch m.pclass {
	case poolNone:
		return
	case poolStruct:
		m.data = nil
	default:
		m.data = m.data[:cap(m.data)]
	}
	msgPools[m.pclass].Put(m)
}
