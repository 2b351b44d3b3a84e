// Package dist is the real distributed runtime: a coordinator/worker
// system that executes the MTTKRPs of CP-ALS across OS processes over TCP.
// It is the first execution path in this repository that moves actual bytes
// over actual sockets — everything in internal/cluster remains a cost model.
//
// There is no closure shipping, and one task kind: PartialMTTKRP. The MTTKRP
// is the only part of ALS that needs the distributed tensor (DFacTo), so the
// coordinator runs the shared mode update of internal/cpals with the fleet
// as its MTTKRP source and keeps the rest — row solves, normalization,
// grams, fits — itself. It partitions the tensor once per mode with
// tensor.ModeIndex row partitioning, ships nonzero shards at session start,
// and ships each updated factor per mode-iteration as a delta of the rows
// that changed AND that the receiving worker's shards read (full matrices
// only at session start and on resync). PartialMTTKRP output rows are
// disjoint between workers (the shards are cut at output-row boundaries),
// so "reduction" is assembly, and each row's accumulation order is the
// shard's stable Perm order — exactly the per-row sequence of the
// shared-memory kernel. The factorization is therefore bitwise identical to
// the single-process cpals.Solve for every worker count and every task
// placement (including after worker deaths).
//
// Failure handling: the coordinator pings every worker; a missed-heartbeat
// timeout, a checksum-failed frame, or any socket error marks the worker
// dead, and its outstanding tasks are reassigned to survivors, re-sending
// the needed shard from the coordinator's resident copy — and a full-factor
// resync for any factor the substitute holds stale, never a delta against
// state it was not sent. A dead worker is not gone for good: a background
// rejoin loop redials its address with exponential backoff + jitter and,
// when the worker answers the handshake again, it is re-admitted mid-solve —
// shards re-ship lazily, factors resync in full — and its home tasks route
// back to it. If the live fleet falls below Config.MinWorkers, the
// coordinator computes the remaining MTTKRPs itself, bitwise identical to
// the distributed result. A chaos.FaultPlan can kill real worker processes,
// sever connections without killing (NetPartition), and corrupt outbound
// frames (FrameCorrupt) at stage boundaries, driving the same recovery paths
// the simulator models.
package dist

import (
	"fmt"

	"cstf/internal/la"
	"cstf/internal/tensor"
)

// ProtocolVersion is bumped on any wire-format change. Hello carries it;
// a mismatch aborts the handshake with a typed error. Version 2 added
// FactorDelta frames, the row-grouped varint shard encoding, and the Hello
// flags byte. Version 3 widened the frame header with a CRC32-C over the
// type byte and payload. Version 4 cut the task vocabulary to
// PartialMTTKRP and dropped the gram, row-solve and fit fields from tasks
// and results.
const ProtocolVersion = 4

// MsgType identifies a protocol frame.
type MsgType uint8

// The protocol frame types. Coordinator-to-worker unless noted.
const (
	MsgHello       MsgType = iota + 1 // session config
	MsgHelloAck                       // worker -> coordinator: handshake reply
	MsgShard                          // one mode's nonzero shard for a row range
	MsgFactor                         // full factor matrix broadcast
	MsgTask                           // task descriptor
	MsgResult                         // worker -> coordinator: task result
	MsgPing                           // heartbeat probe
	MsgPong                           // worker -> coordinator: heartbeat reply
	MsgErr                            // worker -> coordinator: task failure
	MsgShutdown                       // end of session
	MsgFactorDelta                    // changed factor rows since the last send
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgShard:
		return "shard"
	case MsgFactor:
		return "factor"
	case MsgTask:
		return "task"
	case MsgResult:
		return "result"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgErr:
		return "err"
	case MsgShutdown:
		return "shutdown"
	case MsgFactorDelta:
		return "factor-delta"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// TaskKind enumerates the task vocabulary. The kind byte stays on the wire
// so a task of another kind is refused, not misread.
type TaskKind uint8

// TaskPartialMTTKRP computes the MTTKRP output rows [RowLo, RowHi) of one
// mode from the resident shard for that (mode, range). It is the only kind.
const TaskPartialMTTKRP TaskKind = 1

func (k TaskKind) String() string {
	if k == TaskPartialMTTKRP {
		return "partial-mttkrp"
	}
	return fmt.Sprintf("task(%d)", uint8(k))
}

// Hello flag bits (Hello.Flags).
const (
	// HelloUseCSF asks the worker to run PartialMTTKRP with the SPLATT
	// CSF kernel on its shards instead of the per-nonzero COO loop.
	HelloUseCSF uint8 = 1 << 0
)

// Hello is the session handshake: tensor shape, decomposition rank, and
// the worker's identity within the session.
type Hello struct {
	Version uint16
	Flags   uint8 // Hello* bits
	Order   int
	Rank    int   // decomposition rank R
	Dims    []int // len Order
	Worker  int   // this worker's slot (rank order of reductions)
	Workers int   // session worker count
}

// Shard is one worker's share of a mode's nonzeros: exactly the entries
// whose Idx[Mode] falls in [RowLo, RowHi), in the stable ModeIndex Perm
// order. Only the first Order indices of each entry are on the wire. It is
// the encoder's input; what a frame decodes to is a ShardColumns.
type Shard struct {
	Mode         int
	Order        int
	RowLo, RowHi int
	Entries      []tensor.Entry
}

// ShardColumns is a shard as a worker keeps and scans it: one column per
// field instead of one 40-byte tensor.Entry per nonzero, 12 + 4*(Order-1)
// bytes each (20 at order 3). Nonzero i is Vals[i] at row Rows[i] of Mode
// and Cols[c][i] along the c-th other mode, ascending; Rows never descends.
// MaxIdx[m] is the largest index along mode m, recorded once while
// decoding: a task compares it with the factor shapes it is about to index,
// so the per-nonzero kernels run over trusted columns with no bounds test
// of their own.
type ShardColumns struct {
	Mode         int
	Order        int
	RowLo, RowHi int
	Rows         []uint32
	Vals         []float64
	Cols         [][]uint32
	MaxIdx       [tensor.MaxOrder]uint32
}

// others lists the modes Cols holds, in column order.
func (s *ShardColumns) others() []int {
	modes := make([]int, 0, s.Order)
	for m := 0; m < s.Order; m++ {
		if m != s.Mode {
			modes = append(modes, m)
		}
	}
	return modes
}

// Entries materialises the shard as tensor entries, in shard order.
func (s *ShardColumns) Entries() []tensor.Entry {
	out := make([]tensor.Entry, len(s.Rows))
	others := s.others()
	for i := range out {
		out[i].Idx[s.Mode], out[i].Val = s.Rows[i], s.Vals[i]
		for c, m := range others {
			out[i].Idx[m] = s.Cols[c][i]
		}
	}
	return out
}

// checkIndices reports the first mode other than the shard's along which it
// indexes past rows(n), the row count of the matrix the kernel will read for
// mode n.
func (s *ShardColumns) checkIndices(kernel string, rows func(n int) int) error {
	if len(s.Rows) == 0 {
		return nil
	}
	for _, n := range s.others() {
		if int(s.MaxIdx[n]) >= rows(n) {
			return fmt.Errorf("%s mode %d: entry index %d out of range for factor %d (%d rows)",
				kernel, s.Mode, s.MaxIdx[n], n, rows(n))
		}
	}
	return nil
}

// Factor is a full factor-matrix broadcast for one mode.
type Factor struct {
	Mode int
	M    *la.Dense
}

// FactorDelta carries the factor rows of one mode that changed since the
// coordinator's last send to this worker. Rows[i] (a length-Cols row)
// replaces row Indices[i] of the resident factor; Indices are strictly
// ascending. A delta is only ever sent against state the worker is known
// to hold — a worker that never received the mode's full factor rejects
// the frame as a protocol error.
type FactorDelta struct {
	Mode    int
	Cols    int
	Indices []int     // strictly ascending row indices
	Rows    []float64 // len(Indices)*Cols, row-major
}

// Task is one task descriptor: the output rows [RowLo, RowHi) of mode
// Mode's MTTKRP.
type Task struct {
	ID           uint64
	Kind         TaskKind
	Mode         int
	RowLo, RowHi int
}

// Result is a completed task's payload.
type Result struct {
	ID    uint64
	Kind  TaskKind
	RowLo int       // echoes the task's row range start
	Rows  *la.Dense // the computed output rows
}

// RemoteError is a task failure reported by a worker over the wire (as
// opposed to a transport failure, which kills the worker). It indicates a
// protocol-level bug — e.g. a task referencing a shard the worker was
// never sent — and aborts the session rather than triggering reassignment.
type RemoteError struct {
	TaskID uint64
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("dist: worker failed task %d: %s", e.TaskID, e.Msg)
}

// DecodeError reports malformed wire bytes: truncation, trailing garbage,
// counts that exceed the payload, or out-of-range fields. Decoders return
// it instead of panicking, so a corrupt or adversarial peer cannot crash
// the process.
type DecodeError struct {
	Msg    string
	Offset int // byte offset the decoder had reached
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("dist: decode error at byte %d: %s", e.Offset, e.Msg)
}

// CorruptFrameError reports a frame whose CRC32-C did not match its
// contents: the bytes were damaged in flight (or by a torn write on a
// proxy), not malformed by the peer. The receiver resets the connection —
// frame boundaries cannot be trusted after corruption — and the
// coordinator's normal death/rejoin machinery retries the lost work.
type CorruptFrameError struct {
	Type      MsgType
	Want, Got uint32 // header checksum vs computed checksum
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("dist: corrupt %s frame: checksum %08x != %08x", e.Type, e.Got, e.Want)
}
