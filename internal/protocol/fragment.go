package protocol

import (
	"errors"
	"fmt"
)

// Message is one PMNet packet: a sealed header plus its payload fragment.
type Message struct {
	Hdr Header
	// Payload is immutable and GC-owned from the moment it is encoded.
	// Nothing writes through it, so every holder — the client's pending
	// record, a packet on the wire, the device's PM staging copy, the
	// server's reorder buffer and run queue, a handler's stored value — may
	// alias it for as long as it likes, and none of them owns its end of
	// life: a PMNet client completes on the PMNet-ACK while the forwarded
	// copy is still in flight. Builders therefore never encode into a reused
	// backing array; the payload is the one object per request left to the
	// garbage collector (DESIGN.md §10.2).
	Payload []byte
}

// WireSize returns the bytes this message occupies inside the UDP datagram.
func (m Message) WireSize() int { return HeaderSize + len(m.Payload) }

// Encode returns the datagram body (header followed by payload).
func (m Message) Encode() []byte {
	out := make([]byte, 0, m.WireSize())
	out = m.Hdr.Encode(out)
	return append(out, m.Payload...)
}

// DecodeMessage parses a datagram body into a Message.
func DecodeMessage(b []byte) (Message, error) {
	hdr, rest, err := DecodeHeader(b)
	if err != nil {
		return Message{}, err
	}
	return Message{Hdr: hdr, Payload: rest}, nil
}

// FragmentCount returns how many MTU-sized PMNet packets a query payload of
// payloadLen bytes needs (§IV-A3). mtu bounds the whole datagram body
// (header + payload chunk); a zero or negative mtu uses the default MTU.
// Empty payloads produce one fragment.
func FragmentCount(payloadLen, mtu int) int {
	chunk := fragmentChunk(mtu)
	total := (payloadLen + chunk - 1) / chunk
	if total == 0 {
		total = 1
	}
	if total > 0xFFFF {
		panic(fmt.Sprintf("protocol: query needs %d fragments (max 65535)", total))
	}
	return total
}

func fragmentChunk(mtu int) int {
	if mtu <= 0 {
		mtu = MTU
	}
	chunk := mtu - HeaderSize
	if chunk <= 0 {
		panic(fmt.Sprintf("protocol: mtu %d leaves no room for payload", mtu))
	}
	return chunk
}

// FragmentAt builds fragment i of the FragmentCount(len(payload), mtu)
// packets of a query. The fragment consumes sequence number firstSeq+i,
// carries the shared session ID and type, and is individually sealed
// (per-fragment HashVal, since each fragment is logged as its own PM entry
// and ACKed with its own PMNet-ACK). Its Payload aliases payload.
func FragmentAt(typ Type, session uint16, firstSeq uint32, payload []byte, mtu, i int) Message {
	chunk := fragmentChunk(mtu)
	lo := i * chunk
	hi := min(lo+chunk, len(payload))
	h := Header{
		Type:      typ,
		SessionID: session,
		SeqNum:    firstSeq + uint32(i),
		FragIdx:   uint16(i),
		FragTotal: uint16(FragmentCount(len(payload), mtu)),
	}
	h.Seal()
	return Message{Hdr: h, Payload: payload[lo:hi]}
}

// Fragment splits a query payload into its FragmentCount packets, in order.
func Fragment(typ Type, session uint16, firstSeq uint32, payload []byte, mtu int) []Message {
	total := FragmentCount(len(payload), mtu)
	msgs := make([]Message, 0, total)
	for i := 0; i < total; i++ {
		msgs = append(msgs, FragmentAt(typ, session, firstSeq, payload, mtu, i))
	}
	return msgs
}

// ErrIncomplete is returned by Reassembler.Add while fragments are missing.
var ErrIncomplete = errors.New("protocol: query incomplete")

// Reassembler collects the fragments of one query and yields the full
// payload once every fragment has arrived, tolerating reordering and
// duplicates. The query is identified by its first sequence number.
type Reassembler struct {
	firstSeq uint32
	total    int
	got      int
	parts    [][]byte
}

// NewReassembler starts reassembly for the query whose first fragment
// carries firstSeq and declares fragTotal fragments.
func NewReassembler(firstSeq uint32, fragTotal uint16) *Reassembler {
	if fragTotal == 0 {
		fragTotal = 1
	}
	return &Reassembler{
		firstSeq: firstSeq,
		total:    int(fragTotal),
		parts:    make([][]byte, fragTotal),
	}
}

// Complete reports whether every fragment has been received.
func (r *Reassembler) Complete() bool { return r.got == r.total }

// Missing returns the sequence numbers not yet received.
func (r *Reassembler) Missing() []uint32 {
	var out []uint32
	for i, p := range r.parts {
		if p == nil {
			out = append(out, r.firstSeq+uint32(i))
		}
	}
	return out
}

// Add records a fragment. When the final fragment lands it returns the
// concatenated payload; before that it returns ErrIncomplete. Fragments that
// do not belong to this query are rejected.
func (r *Reassembler) Add(m Message) ([]byte, error) {
	idx := int(m.Hdr.FragIdx)
	if int(m.Hdr.FragTotal) != r.total || idx >= r.total {
		return nil, fmt.Errorf("protocol: fragment %d/%d does not match query of %d fragments",
			idx, m.Hdr.FragTotal, r.total)
	}
	if m.Hdr.SeqNum != r.firstSeq+uint32(idx) {
		return nil, fmt.Errorf("protocol: fragment seq %d inconsistent with first seq %d + idx %d",
			m.Hdr.SeqNum, r.firstSeq, idx)
	}
	if r.parts[idx] == nil {
		r.parts[idx] = m.Payload
		r.got++
	}
	if !r.Complete() {
		return nil, ErrIncomplete
	}
	var n int
	for _, p := range r.parts {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out, nil
}
