package protocol

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Type: TypeUpdateReq, SessionID: 42, SeqNum: 7, FragIdx: 1, FragTotal: 3}
	h.Seal()
	wire := h.Encode(nil)
	if len(wire) != HeaderSize {
		t.Fatalf("encoded %d bytes, want %d", len(wire), HeaderSize)
	}
	got, rest, err := DecodeHeader(append(wire, 0xAA, 0xBB))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("decoded %+v, want %+v", got, h)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("payload remainder wrong: %v", rest)
	}
}

func TestDecodeHeaderRejectsShort(t *testing.T) {
	_, _, err := DecodeHeader(make([]byte, HeaderSize-1))
	if !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
}

func TestDecodeHeaderRejectsBadType(t *testing.T) {
	h := Header{Type: TypeUpdateReq, SessionID: 1, SeqNum: 1, FragTotal: 1}
	h.Seal()
	wire := h.Encode(nil)
	wire[0] = 200 // invalid type
	if _, _, err := DecodeHeader(wire); !errors.Is(err, ErrBadType) {
		t.Fatalf("err = %v, want ErrBadType", err)
	}
}

func TestDecodeHeaderRejectsCorruption(t *testing.T) {
	h := Header{Type: TypeUpdateReq, SessionID: 9, SeqNum: 100, FragTotal: 1}
	h.Seal()
	wire := h.Encode(nil)
	wire[5] ^= 0xFF // corrupt SeqNum
	if _, _, err := DecodeHeader(wire); !errors.Is(err, ErrBadHash) {
		t.Fatalf("err = %v, want ErrBadHash", err)
	}
}

func TestHashDependsOnRequestIdentityNotType(t *testing.T) {
	base := Header{Type: TypeUpdateReq, SessionID: 1, SeqNum: 1, FragIdx: 0, FragTotal: 1}
	h0 := base.ComputeHash()
	// Hash changes with any request-identifying field...
	variants := []Header{
		{Type: TypeUpdateReq, SessionID: 2, SeqNum: 1, FragTotal: 1},
		{Type: TypeUpdateReq, SessionID: 1, SeqNum: 2, FragTotal: 1},
		{Type: TypeUpdateReq, SessionID: 1, SeqNum: 1, FragIdx: 1, FragTotal: 2},
	}
	for i, v := range variants {
		if v.ComputeHash() == h0 {
			t.Errorf("variant %d hash collides with base", i)
		}
	}
	// ...but NOT with the Type: a server-ACK for the request carries the
	// same HashVal, which is the PM log index (§IV-B1).
	ack := Header{Type: TypeServerACK, SessionID: 1, SeqNum: 1, FragIdx: 0, FragTotal: 1}
	if ack.ComputeHash() != h0 {
		t.Error("server-ACK hash differs from its request's hash")
	}
}

func TestPMNetPortRange(t *testing.T) {
	for _, c := range []struct {
		port uint16
		want bool
	}{{50999, false}, {51000, true}, {51500, true}, {52000, true}, {52001, false}, {80, false}} {
		if got := IsPMNetPort(c.port); got != c.want {
			t.Errorf("IsPMNetPort(%d) = %v", c.port, got)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeUpdateReq.String() != "update-req" || TypeServerACK.String() != "server-ACK" {
		t.Fatal("type names wrong")
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type must still format")
	}
	if TypeInvalid.Valid() || Type(100).Valid() {
		t.Fatal("invalid types reported valid")
	}
	if !TypeRetrans.Valid() {
		t.Fatal("Retrans reported invalid")
	}
}

func TestFragmentSmallPayloadSingleFragment(t *testing.T) {
	msgs := Fragment(TypeUpdateReq, 5, 100, []byte("tiny"), 0)
	if len(msgs) != 1 {
		t.Fatalf("got %d fragments, want 1", len(msgs))
	}
	m := msgs[0]
	if m.Hdr.SeqNum != 100 || m.Hdr.FragIdx != 0 || m.Hdr.FragTotal != 1 {
		t.Fatalf("header %+v", m.Hdr)
	}
	if string(m.Payload) != "tiny" {
		t.Fatalf("payload %q", m.Payload)
	}
	if m.Hdr.ComputeHash() != m.Hdr.HashVal {
		t.Fatal("fragment not sealed")
	}
}

func TestFragmentEmptyPayload(t *testing.T) {
	msgs := Fragment(TypeUpdateReq, 1, 1, nil, 0)
	if len(msgs) != 1 || len(msgs[0].Payload) != 0 {
		t.Fatalf("empty payload should make one empty fragment, got %d", len(msgs))
	}
}

func TestFragmentRespectsMTU(t *testing.T) {
	payload := make([]byte, 4000)
	for i := range payload {
		payload[i] = byte(i)
	}
	msgs := Fragment(TypeUpdateReq, 3, 50, payload, 1500)
	if len(msgs) != 3 { // ceil(4000 / 1484)
		t.Fatalf("got %d fragments, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.WireSize() > 1500 {
			t.Fatalf("fragment %d exceeds MTU: %d", i, m.WireSize())
		}
		if m.Hdr.SeqNum != 50+uint32(i) {
			t.Fatalf("fragment %d seq %d", i, m.Hdr.SeqNum)
		}
	}
}

func TestReassemblerInOrder(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msgs := Fragment(TypeUpdateReq, 9, 10, payload, 1000)
	r := NewReassembler(10, msgs[0].Hdr.FragTotal)
	var got []byte
	for i, m := range msgs {
		out, err := r.Add(m)
		if i < len(msgs)-1 {
			if !errors.Is(err, ErrIncomplete) {
				t.Fatalf("fragment %d: err = %v, want ErrIncomplete", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got = out
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs")
	}
}

func TestReassemblerReorderedAndDuplicated(t *testing.T) {
	payload := make([]byte, 2500)
	for i := range payload {
		payload[i] = byte(i)
	}
	msgs := Fragment(TypeUpdateReq, 2, 0, payload, 1000)
	r := NewReassembler(0, msgs[0].Hdr.FragTotal)
	order := []int{2, 0, 0, 1} // out of order with a duplicate
	var got []byte
	for _, idx := range order {
		out, err := r.Add(msgs[idx])
		if err == nil {
			got = out
		} else if !errors.Is(err, ErrIncomplete) {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembly with reordering/duplicates failed")
	}
}

func TestReassemblerMissing(t *testing.T) {
	msgs := Fragment(TypeUpdateReq, 2, 40, make([]byte, 2500), 1000)
	r := NewReassembler(40, msgs[0].Hdr.FragTotal)
	_, _ = r.Add(msgs[0])
	_, _ = r.Add(msgs[2])
	miss := r.Missing()
	if len(miss) != 1 || miss[0] != 41 {
		t.Fatalf("Missing() = %v, want [41]", miss)
	}
}

func TestReassemblerRejectsForeignFragment(t *testing.T) {
	r := NewReassembler(0, 2)
	bad := Fragment(TypeUpdateReq, 1, 100, []byte("x"), 0)[0]
	if _, err := r.Add(bad); err == nil || errors.Is(err, ErrIncomplete) {
		t.Fatalf("foreign fragment accepted: %v", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Fragment(TypeBypassReq, 7, 55, []byte("payload bytes"), 0)[0]
	got, err := DecodeMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Hdr != m.Hdr || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("message round trip mismatch")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		GetReq([]byte("key1")),
		PutReq([]byte("key2"), []byte("value2")),
		DeleteReq([]byte("key3")),
		LockReq([]byte("stock:42")),
		UnlockReq([]byte("stock:42")),
		TxnReq([]byte("new-order"), []byte("w1"), []byte("d3")),
		{Op: OpPut, Args: [][]byte{{}, {}}}, // empty args are legal
	}
	for _, r := range reqs {
		got, err := DecodeRequest(r.Encode())
		if err != nil {
			t.Fatalf("%v: %v", r.Op, err)
		}
		if got.Op != r.Op || len(got.Args) != len(r.Args) {
			t.Fatalf("round trip changed shape: %+v vs %+v", got, r)
		}
		for i := range r.Args {
			if !bytes.Equal(got.Args[i], r.Args[i]) {
				t.Fatalf("arg %d mismatch", i)
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := Response{Status: StatusNotFound, Args: [][]byte{[]byte("why")}}
	got, err := DecodeResponse(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusNotFound || string(got.Args[0]) != "why" {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	if _, err := DecodeRequest(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := DecodeRequest([]byte{0}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("nop op: %v", err)
	}
	if _, err := DecodeRequest([]byte{99, 0}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("bad op: %v", err)
	}
	// Truncated arg payload.
	full := PutReq([]byte("abc"), []byte("defgh")).Encode()
	if _, err := DecodeRequest(full[:len(full)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestOpMutates(t *testing.T) {
	if OpGet.Mutates() || OpNop.Mutates() {
		t.Fatal("reads must not be mutating")
	}
	for _, o := range []Op{OpPut, OpDelete, OpTxn, OpLockAcquire, OpLockRelease} {
		if !o.Mutates() {
			t.Fatalf("%v should mutate", o)
		}
	}
}

func TestUpdateKey(t *testing.T) {
	long := bytes.Repeat([]byte("k"), 300) // a two-byte length prefix
	put := PutReq(long, make([]byte, 5000)).Encode()
	for _, c := range []struct {
		name string
		b    []byte
		want []byte
	}{
		{"put", PutReq([]byte("key"), []byte("v")).Encode(), []byte("key")},
		{"delete", DeleteReq([]byte("key")).Encode(), []byte("key")},
		{"empty key", PutReq(nil, []byte("v")).Encode(), []byte{}},
		{"first fragment of a large put", put[:MTU], long},
		{"key cut by the fragment boundary", put[:200], nil},
		{"length prefix cut", put[:3], nil},
		{"no arguments", Request{Op: OpPut}.Encode(), nil},
		{"get", GetReq([]byte("key")).Encode(), nil},
		{"txn", TxnReq([]byte("SET"), []byte("key")).Encode(), nil},
		{"one byte", []byte{byte(OpPut)}, nil},
		{"empty", nil, nil},
	} {
		got, ok := UpdateKey(c.b)
		if ok != (c.want != nil) || !bytes.Equal(got, c.want) {
			t.Errorf("%s: UpdateKey = %q, %v; want %q", c.name, got, ok, c.want)
		}
	}
}

func TestRequestKey(t *testing.T) {
	if k := GetReq([]byte("k")).Key(); string(k) != "k" {
		t.Fatalf("Key() = %q", k)
	}
	r := TxnReq([]byte("t"))
	if r.Key() != nil {
		t.Fatal("txn must have no cache key")
	}
	empty := Request{Op: OpGet}
	if empty.Key() != nil {
		t.Fatal("argless request must have no key")
	}
}

// Property: fragment → reassemble is the identity for any payload and MTU.
func TestQuickFragmentReassemble(t *testing.T) {
	f := func(payload []byte, mtuSeed uint16, seq uint32) bool {
		mtu := int(mtuSeed)%2000 + HeaderSize + 1 // ensure room for ≥1 byte
		if len(payload) > 1400*0xFFFF {
			payload = payload[:1400]
		}
		msgs := Fragment(TypeUpdateReq, 1, seq, payload, mtu)
		r := NewReassembler(seq, msgs[0].Hdr.FragTotal)
		var got []byte
		for i, m := range msgs {
			out, err := r.Add(m)
			if i == len(msgs)-1 {
				if err != nil {
					return false
				}
				got = out
			} else if !errors.Is(err, ErrIncomplete) {
				return false
			}
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: header encode/decode is the identity for any sealed header with
// a valid type.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(typ uint8, sess uint16, seq uint32, fi, ft uint16) bool {
		h := Header{
			Type:      Type(typ%uint8(typeMax-1)) + 1,
			SessionID: sess, SeqNum: seq, FragIdx: fi, FragTotal: ft,
		}
		h.Seal()
		got, _, err := DecodeHeader(h.Encode(nil))
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: request encode/decode identity.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(opSeed uint8, args [][]byte) bool {
		ops := []Op{OpGet, OpPut, OpDelete, OpLockAcquire, OpLockRelease, OpTxn}
		if len(args) > 255 {
			args = args[:255]
		}
		r := Request{Op: ops[int(opSeed)%len(ops)], Args: args}
		got, err := DecodeRequest(r.Encode())
		if err != nil || got.Op != r.Op || len(got.Args) != len(r.Args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(got.Args[i], args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEncodeRejectsTooManyArgs: the argument count travels in one byte, so a
// 256-argument request used to encode as a 0-argument one and decode, with
// no error, to the wrong request. 255 is the last count that round-trips.
func TestEncodeRejectsTooManyArgs(t *testing.T) {
	params := make([][]byte, 254) // + the name = 255 arguments
	for i := range params {
		params[i] = []byte{byte(i)}
	}
	got, err := DecodeRequest(TxnReq([]byte("big"), params...).Encode())
	if err != nil || len(got.Args) != 255 || got.Args[254][0] != 253 {
		t.Fatalf("255 arguments did not round-trip: %d args, err %v", len(got.Args), err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("encoding 256 arguments did not panic")
		}
	}()
	TxnReq([]byte("big"), append(params, []byte("one too many"))...).Encode()
}

// TestAppendEncodeAndDecodeInto: the append/into forms are the codec; Encode
// and DecodeRequest are their nil-destination forms and must agree with
// them byte for byte.
func TestAppendEncodeAndDecodeInto(t *testing.T) {
	req := PutReq([]byte("key"), []byte("value"))
	prefix := []byte("hdr:")
	out := req.AppendEncode(prefix)
	if !bytes.Equal(out[:4], prefix) || !bytes.Equal(out[4:], req.Encode()) {
		t.Fatalf("AppendEncode %q, want prefix + %q", out, req.Encode())
	}
	resp := Response{Status: StatusOK, Args: [][]byte{[]byte("k"), []byte("v")}}
	if out := resp.AppendEncode(prefix); !bytes.Equal(out[4:], resp.Encode()) {
		t.Fatalf("Response.AppendEncode %q, want prefix + %q", out, resp.Encode())
	}
	var backing [4][]byte
	scratch := backing[:0]
	got, err := DecodeRequestInto(req.Encode(), &scratch)
	if err != nil || got.Op != OpPut || len(got.Args) != 2 || string(got.Args[1]) != "value" {
		t.Fatalf("DecodeRequestInto: %+v, %v", got, err)
	}
	if &got.Args[0] != &backing[0] {
		t.Fatal("DecodeRequestInto ignored a large enough scratch array")
	}
	big := TxnReq([]byte("t"), []byte("1"), []byte("2"), []byte("3"), []byte("4"))
	if got, err := DecodeRequestInto(big.Encode(), &scratch); err != nil || len(got.Args) != 5 {
		t.Fatalf("DecodeRequestInto past the scratch's capacity: %+v, %v", got, err)
	}
	if cap(scratch) < 5 || len(scratch) != 0 {
		t.Fatalf("grown array not left in the scratch: len %d cap %d", len(scratch), cap(scratch))
	}
}

// TestFragmentAtMatchesFragment: Fragment is FragmentAt in a loop.
func TestFragmentAtMatchesFragment(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 2500)
	msgs := Fragment(TypeUpdateReq, 7, 100, payload, 1016)
	if n := FragmentCount(len(payload), 1016); n != 3 || len(msgs) != n {
		t.Fatalf("FragmentCount %d, Fragment %d, want 3", n, len(msgs))
	}
	for i, m := range msgs {
		at := FragmentAt(TypeUpdateReq, 7, 100, payload, 1016, i)
		if at.Hdr != m.Hdr || !bytes.Equal(at.Payload, m.Payload) {
			t.Fatalf("fragment %d: %v vs %v", i, at.Hdr, m.Hdr)
		}
	}
}
