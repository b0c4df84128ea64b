package trace

import (
	"bytes"
	"fmt"
	"sort"
)

// ChromeJSON serializes the recorded stream in the chrome://tracing (and
// Perfetto) JSON array format. nodeName maps a node id to its display name
// and may be nil (ids are rendered as "node-<id>").
//
// The output is a pure function of the recorded ring: timestamps come from
// the virtual clock and are formatted with integer math only (no float
// round-tripping), process metadata is emitted in sorted pid order, and
// events appear in emission order — so the bytes are identical for identical
// runs, regardless of host, GOMAXPROCS, or the race detector. The golden
// test (TestTraceGoldenSmoke) holds us to that.
//
// Layout: request lifecycles are async spans ("b"/"e") under a synthetic
// "requests" process (pid 0, one tid per session); per-node stage events are
// thread-scoped instants under the node's pid; gauges are counter series
// ("C") attached to the owning node.
func (t *Tracer) ChromeJSON(nodeName func(id uint64) string) []byte {
	if nodeName == nil {
		nodeName = func(id uint64) string { return fmt.Sprintf("node-%d", id) }
	}
	recs := t.Records()

	// Collect the distinct pids first so process_name metadata can lead the
	// file in sorted order.
	pidSet := make(map[uint64]bool)
	for i := range recs {
		pidSet[pidOf(&recs[i])] = true
	}
	pids := make([]uint64, 0, len(pidSet))
	for pid := range pidSet {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	var buf bytes.Buffer
	buf.WriteString("[\n")
	first := true
	emit := func() *bytes.Buffer {
		if !first {
			buf.WriteString(",\n")
		}
		first = false
		return &buf
	}

	for _, pid := range pids {
		name := "requests"
		if pid != 0 {
			name = nodeName(pid)
		}
		fmt.Fprintf(emit(),
			`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`,
			pid, name)
	}

	for i := range recs {
		r := &recs[i]
		b := emit()
		switch r.Kind {
		case EvIssue:
			fmt.Fprintf(b, `{"name":"request","cat":"req","ph":"b","id":"0x%x","pid":0,"tid":%d,"ts":`,
				r.A, r.A>>32)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"frags":%d,"update":%d}}`, r.B, r.C)
		case EvComplete:
			fmt.Fprintf(b, `{"name":"request","cat":"req","ph":"e","id":"0x%x","pid":0,"tid":%d,"ts":`,
				r.A, r.A>>32)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"resends":%d,"cached":%d}}`, r.B, r.C)
		case EvFail:
			fmt.Fprintf(b, `{"name":"request","cat":"req","ph":"e","id":"0x%x","pid":0,"tid":%d,"ts":`,
				r.A, r.A>>32)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"failed":1,"retries":%d}}`, r.B)
		case EvResend:
			fmt.Fprintf(b, `{"name":"resend","cat":"req","ph":"i","s":"t","pid":0,"tid":%d,"ts":`,
				r.A>>32)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"seq":%d,"retry":%d}}`, r.A&0xffffffff, r.B)
		case EvStackTX, EvStackRX, EvSwitchFwd:
			fmt.Fprintf(b, `{"name":%q,"cat":"net","ph":"i","s":"t","pid":%d,"tid":0,"ts":`,
				r.Kind.String(), r.A)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"pkt":%d}}`, r.B)
		case EvPipeline:
			fmt.Fprintf(b, `{"name":"pipeline","cat":"dev","ph":"i","s":"t","pid":%d,"tid":0,"ts":`, r.A)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"pkt":%d,"span":"0x%x"}}`, r.B, r.C)
		case EvPersist:
			fmt.Fprintf(b, `{"name":"pm-persist","cat":"dev","ph":"i","s":"t","pid":%d,"tid":0,"ts":`, r.A)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"hash":%d,"span":"0x%x"}}`, r.B, r.C)
		case EvPMNetAck, EvServerApply, EvServerAck:
			fmt.Fprintf(b, `{"name":%q,"cat":"dev","ph":"i","s":"t","pid":%d,"tid":0,"ts":`,
				r.Kind.String(), r.A)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"span":"0x%x"}}`, r.C)
		case EvDrop:
			fmt.Fprintf(b, `{"name":"drop","cat":"net","ph":"i","s":"t","pid":%d,"tid":0,"ts":`, r.A)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"pkt":%d,"reason":%q}}`, r.B, dropReason(r.C))
		case GaugeLinkQueue:
			from, to := r.A>>32, r.A&0xffffffff
			fmt.Fprintf(b, `{"name":"link-queue to %s","ph":"C","pid":%d,"tid":0,"ts":`,
				nodeName(to), from)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"bytes":%d}}`, r.B)
		case GaugeLogLive:
			fmt.Fprintf(b, `{"name":"log-live","ph":"C","pid":%d,"tid":0,"ts":`, r.A)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"entries":%d}}`, r.B)
		case GaugeInFlight:
			fmt.Fprintf(b, `{"name":"in-flight s%d","ph":"C","pid":0,"tid":%d,"ts":`, r.A, r.A)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"value":%d}}`, r.B)
		default:
			fmt.Fprintf(b, `{"name":"kind-%d","ph":"i","s":"t","pid":0,"tid":0,"ts":`, r.Kind)
			writeTS(b, int64(r.At))
			fmt.Fprintf(b, `,"args":{"a":%d,"b":%d,"c":%d}}`, r.A, r.B, r.C)
		}
	}
	buf.WriteString("\n]\n")
	return buf.Bytes()
}

// writeTS renders a virtual-nanosecond stamp as chrome's microsecond ts with
// exact sub-microsecond digits. Integer math only: formatting floats would
// be the one nondeterminism hole in an otherwise virtual-clock pipeline.
func writeTS(b *bytes.Buffer, ns int64) {
	fmt.Fprintf(b, "%d.%03d", ns/1000, ns%1000)
}

func dropReason(c uint64) string {
	switch c {
	case DropDead:
		return "dead"
	case DropFull:
		return "full"
	case DropRand:
		return "rand"
	}
	return "?"
}

// pidOf assigns each record to its chrome process: request-scoped kinds live
// under the synthetic pid 0, node-scoped kinds under the node id in A (the
// link gauge keys by the egress node).
func pidOf(r *Record) uint64 {
	switch r.Kind {
	case EvIssue, EvComplete, EvFail, EvResend, GaugeInFlight:
		return 0
	case GaugeLinkQueue:
		return r.A >> 32
	}
	return r.A
}
