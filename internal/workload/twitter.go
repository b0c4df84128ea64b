package workload

import (
	"strconv"

	"pmnet/internal/protocol"
	"pmnet/internal/sim"
)

// TwitterConfig parameterizes the Retwis-style Twitter workload (§VI-A2,
// Figure 4). Users post tweets, follow users, and read timelines; there is
// no cross-client ordering (each poster allocates IDs via independent INCR
// calls), which is exactly the lock-free structure the paper exploits.
type TwitterConfig struct {
	Users       int     // user population (targets of follows and reads)
	UpdateRatio float64 // fraction of *actions* that mutate (post/follow)
	PostLen     int     // tweet payload size (default 100)
	TimelineLen int     // LRANGE window on reads (default 10)
}

// TwitterMix emits the retwis actions — post, follow, timeline read — as
// Redis commands riding in OpTxn requests: Args[0] is the command name, the
// rest its arguments, interpreted by the server-side RedisHandler.
type TwitterMix struct {
	cfg  TwitterConfig
	tag  byte // first byte of a post id: the id space the poster numbers in
	post []byte
	stop []byte // LRANGE's last index, TimelineLen-1 in decimal
}

// The command names and fixed keys of the mix. Never written: every request
// that names one shares these bytes.
var (
	cmdIncr   = []byte("INCR")
	cmdSet    = []byte("SET")
	cmdGet    = []byte("GET")
	cmdLPush  = []byte("LPUSH")
	cmdLRange = []byte("LRANGE")
	cmdSAdd   = []byte("SADD")

	keyNextPostID     = []byte("next_post_id")
	keyGlobalTimeline = []byte("timeline:global")
	keyLatestPost     = []byte("post:latest")
	argZero           = []byte("0")
)

// NewTwitterMix completes cfg with the retwis defaults. Its post ids are
// u<uid>-<seq>; NewTwitter's closed-loop clients number theirs c<uid>-<n>.
func NewTwitterMix(cfg TwitterConfig) *TwitterMix {
	if cfg.Users <= 0 {
		cfg.Users = 1000
	}
	if cfg.PostLen <= 0 {
		cfg.PostLen = 100
	}
	if cfg.TimelineLen <= 0 {
		cfg.TimelineLen = 10
	}
	if cfg.UpdateRatio == 0 {
		cfg.UpdateRatio = 0.5 // retwis default mix: half posts/follows
	}
	m := &TwitterMix{cfg: cfg, tag: 'u', post: make([]byte, cfg.PostLen),
		stop: strconv.AppendInt(nil, int64(cfg.TimelineLen-1), 10)}
	for i := range m.post {
		m.post[i] = byte('t')
	}
	return m
}

// NewTwitter builds the closed-loop generator of one client: the mix played
// by user clientID with a private post counter.
func NewTwitter(rand *sim.Rand, clientID int, cfg TwitterConfig) *Player {
	m := NewTwitterMix(cfg)
	m.tag = 'c'
	return &Player{mix: m, rand: rand, uid: clientID % m.cfg.Users}
}

// Action implements Mix.
func (m *TwitterMix) Action(r *sim.Rand, uid int, seq uint64, ops []Op) []Op {
	seq--
	return m.steps(r, uid, &seq, ops)
}

// appendPostID appends the id of uid's post number n: <tag><uid>-<n>.
func (m *TwitterMix) appendPostID(b []byte, uid int, n uint64) []byte {
	return appendID(append(b, m.tag), uid, n)
}

// appendKey appends prefix and n in decimal: the per-user keys of the mix.
func appendKey(b []byte, prefix string, n int) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(n), 10)
}

// steps formats every key and id into the op that carries it (Op.kb); where
// one op carries two, they sit back to back in the one buffer and are cut
// apart once both are written.
func (m *TwitterMix) steps(r *sim.Rand, uid int, ids *uint64, ops []Op) []Op {
	var op *Op
	if r.Float64() < m.cfg.UpdateRatio {
		if r.Float64() < 0.7 {
			// Post: allocate a post id (getUID in Figure 4 — no cross-client
			// ordering), store the tweet, push it onto the poster's timeline
			// and the global timeline.
			*ids++
			ops, op = push(ops)
			op.fill(protocol.OpTxn, true, cmdIncr, keyNextPostID)
			ops, op = push(ops)
			op.fill(protocol.OpTxn, true, cmdSet, m.appendPostID(append(op.kb[:0], "post:"...), uid, *ids), m.post)
			ops, op = push(ops)
			b := appendKey(op.kb[:0], "timeline:", uid)
			k := len(b)
			b = m.appendPostID(b, uid, *ids)
			op.fill(protocol.OpTxn, true, cmdLPush, b[:k:k], b[k:])
			ops, op = push(ops)
			op.fill(protocol.OpTxn, true, cmdLPush, keyGlobalTimeline, m.appendPostID(op.kb[:0], uid, *ids))
			return ops
		}
		// Follow: two set insertions.
		other := r.Intn(m.cfg.Users)
		ops, op = push(ops)
		b := appendKey(op.kb[:0], "followers:", other)
		k := len(b)
		b = strconv.AppendInt(b, int64(uid), 10)
		op.fill(protocol.OpTxn, true, cmdSAdd, b[:k:k], b[k:])
		ops, op = push(ops)
		b = appendKey(op.kb[:0], "following:", uid)
		k = len(b)
		b = strconv.AppendInt(b, int64(other), 10)
		op.fill(protocol.OpTxn, true, cmdSAdd, b[:k:k], b[k:])
		return ops
	}
	// Home timeline: fetch the post list, then two posts. Only the first
	// 1000 users' first posts are seeded (harness prefill), so the read
	// folds who into that range.
	who := r.Intn(m.cfg.Users)
	ops, op = push(ops)
	op.fill(protocol.OpTxn, false, cmdLRange, appendKey(op.kb[:0], "timeline:", who), argZero, m.stop)
	ops, op = push(ops)
	op.fill(protocol.OpTxn, false, cmdGet, append(appendKey(op.kb[:0], "post:c", who%1000), "-1"...))
	ops, op = push(ops)
	op.fill(protocol.OpTxn, false, cmdGet, keyLatestPost)
	return ops
}
