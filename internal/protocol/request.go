package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// Op is the application-level operation carried in a request payload. All
// PMNet workloads (PMDK-style KV engines, the Redis-like store, Twitter,
// TPCC) share this codec so that servers can dispatch uniformly and the
// read cache can extract keys from GET/SET requests (§VI-B4).
type Op uint8

const (
	OpNop Op = iota
	// Key-value operations.
	OpGet
	OpPut
	OpDelete
	// Synchronization primitives; always sent as bypass requests so the
	// server enforces multi-client ordering (§III-C).
	OpLockAcquire
	OpLockRelease
	// Transactional / composite operations, interpreted by the workload
	// server handler (TPCC new-order & payment, Twitter post/follow/...).
	OpTxn
	// OpScan is an ordered range scan: Args = [startKey, limit (decimal)].
	// Read-only, so it travels as a bypass request (YCSB workload E).
	OpScan

	opMax
)

var opNames = [...]string{
	OpNop:         "nop",
	OpGet:         "get",
	OpPut:         "put",
	OpDelete:      "delete",
	OpLockAcquire: "lock",
	OpLockRelease: "unlock",
	OpTxn:         "txn",
	OpScan:        "scan",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Mutates reports whether the operation changes server state — the property
// that decides between update-req and bypass-req framing. Lock operations
// mutate server state but MUST travel as bypass requests so ordering is
// enforced at the server (§III-C); the client library handles that.
func (o Op) Mutates() bool {
	switch o {
	case OpPut, OpDelete, OpTxn, OpLockAcquire, OpLockRelease:
		return true
	default:
		return false
	}
}

// Request is an application-level query: an operation plus its arguments
// (key, value, transaction parameters...).
type Request struct {
	Op   Op
	Args [][]byte
}

// Status is the application-level result code carried in responses.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotFound
	StatusLocked // lock acquisition failed; caller must retry
	StatusError
)

var statusNames = [...]string{
	StatusOK:       "ok",
	StatusNotFound: "not-found",
	StatusLocked:   "locked",
	StatusError:    "error",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Response is the server's application-level reply.
type Response struct {
	Status Status
	Args   [][]byte
}

// Codec errors.
var (
	ErrTruncated = errors.New("protocol: truncated request payload")
	ErrBadOp     = errors.New("protocol: unknown operation")
)

// maxArgs is the most arguments a payload can carry: the count travels in
// one byte.
const maxArgs = 255

func encodeArgs(dst []byte, args [][]byte) []byte {
	if len(args) > maxArgs {
		panic(fmt.Sprintf("protocol: %d arguments (max %d)", len(args), maxArgs))
	}
	dst = append(dst, byte(len(args)))
	for _, a := range args {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// argsSize returns the encoded size of an argument vector, so AppendEncode
// can grow its output in one shot instead of through appends.
func argsSize(args [][]byte) int {
	n := 1 // arg count byte
	var tmp [binary.MaxVarintLen64]byte
	for _, a := range args {
		n += binary.PutUvarint(tmp[:], uint64(len(a))) + len(a)
	}
	return n
}

// decodeArgs parses an argument vector into args[:0], allocating only when
// args is too small to hold it. The decoded slices alias b.
func decodeArgs(b []byte, args [][]byte) ([][]byte, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	argc := int(b[0])
	b = b[1:]
	if args == nil || cap(args) < argc {
		args = make([][]byte, 0, argc)
	}
	args = args[:0]
	for i := 0; i < argc; i++ {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return nil, ErrTruncated
		}
		b = b[n:]
		args = append(args, b[:l:l])
		b = b[l:]
	}
	return args, nil
}

// AppendEncode appends the request's payload form to dst, growing it at
// most once, and returns the extended slice. It panics past 255 arguments:
// the count would wrap and the payload decode to a different request.
func (r Request) AppendEncode(dst []byte) []byte {
	dst = slices.Grow(dst, 1+argsSize(r.Args))
	dst = append(dst, byte(r.Op))
	return encodeArgs(dst, r.Args)
}

// Encode serializes the request as a fresh payload (see Message.Payload for
// why a payload is never built into reused memory).
func (r Request) Encode() []byte { return r.AppendEncode(nil) }

// DecodeRequestInto parses a request payload, using *scratch as the backing
// array of the result's Args when it is large enough and leaving the array
// it used — grown if need be — in *scratch for the next call. The owner of
// the scratch may therefore keep the request only until it decodes again;
// the argument byte slices alias b and outlive that.
func DecodeRequestInto(b []byte, scratch *[][]byte) (Request, error) {
	if len(b) < 1 {
		return Request{}, ErrTruncated
	}
	op := Op(b[0])
	if op == OpNop || op >= opMax {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOp, b[0])
	}
	args, err := decodeArgs(b[1:], *scratch)
	if err != nil {
		return Request{}, err
	}
	*scratch = args[:0]
	return Request{Op: op, Args: args}, nil
}

// DecodeRequest parses a request payload into a freshly allocated Args.
func DecodeRequest(b []byte) (Request, error) {
	var fresh [][]byte
	return DecodeRequestInto(b, &fresh)
}

// AppendEncode appends the response's payload form to dst, like
// Request.AppendEncode.
func (r Response) AppendEncode(dst []byte) []byte {
	dst = slices.Grow(dst, 1+argsSize(r.Args))
	dst = append(dst, byte(r.Status))
	return encodeArgs(dst, r.Args)
}

// Encode serializes the response as a fresh payload.
func (r Response) Encode() []byte { return r.AppendEncode(nil) }

// DecodeResponseInto parses a response payload under DecodeRequestInto's
// scratch contract: the result's Args array is *scratch, the owner may keep
// the response only until it decodes again, and the argument byte slices
// alias b.
func DecodeResponseInto(b []byte, scratch *[][]byte) (Response, error) {
	if len(b) < 1 {
		return Response{}, ErrTruncated
	}
	args, err := decodeArgs(b[1:], *scratch)
	if err != nil {
		return Response{}, err
	}
	*scratch = args[:0]
	return Response{Status: Status(b[0]), Args: args}, nil
}

// DecodeResponse parses a response payload into a freshly allocated Args.
func DecodeResponse(b []byte) (Response, error) {
	var fresh [][]byte
	return DecodeResponseInto(b, &fresh)
}

// Convenience constructors for the common shapes.

// GetReq builds a read request for key.
func GetReq(key []byte) Request { return Request{Op: OpGet, Args: [][]byte{key}} }

// PutReq builds an update request storing value under key.
func PutReq(key, value []byte) Request { return Request{Op: OpPut, Args: [][]byte{key, value}} }

// DeleteReq builds a delete request for key.
func DeleteReq(key []byte) Request { return Request{Op: OpDelete, Args: [][]byte{key}} }

// LockReq builds a lock-acquire request for the named lock.
func LockReq(name []byte) Request { return Request{Op: OpLockAcquire, Args: [][]byte{name}} }

// UnlockReq builds a lock-release request for the named lock.
func UnlockReq(name []byte) Request { return Request{Op: OpLockRelease, Args: [][]byte{name}} }

// TxnReq builds a composite transactional request; the first argument names
// the transaction and the rest are its parameters.
func TxnReq(name []byte, params ...[]byte) Request {
	args := make([][]byte, 0, 1+len(params))
	return Request{Op: OpTxn, Args: append(append(args, name), params...)}
}

// ScanReq builds an ordered range-scan request starting at start, returning
// at most limit pairs.
func ScanReq(start []byte, limit int) Request {
	return Request{Op: OpScan, Args: [][]byte{start, strconv.AppendInt(nil, int64(limit), 10)}}
}

// UpdateKey extracts the key of a PUT or DELETE from the front of its
// payload without decoding the rest: b may be the first fragment of a request
// spread over several, as long as the key lies whole within it. ok is false
// for any other operation or a key cut short.
func UpdateKey(b []byte) (key []byte, ok bool) {
	if len(b) < 2 || (Op(b[0]) != OpPut && Op(b[0]) != OpDelete) || b[1] == 0 {
		return nil, false
	}
	l, n := binary.Uvarint(b[2:])
	if n <= 0 || uint64(len(b)-2-n) < l {
		return nil, false
	}
	return b[2+n : 2+n+int(l)], true
}

// Key returns the primary key of a KV request, or nil when the operation has
// no key (used by the PMNet read cache to index GET/SET traffic).
func (r Request) Key() []byte {
	if len(r.Args) == 0 {
		return nil
	}
	switch r.Op {
	case OpGet, OpPut, OpDelete:
		return r.Args[0]
	default:
		return nil
	}
}
