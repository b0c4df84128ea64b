package workload

import (
	"fmt"

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
}

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
	m := &TwitterMix{cfg: cfg, tag: 'u', post: make([]byte, cfg.PostLen)}
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

func redisCmd(update bool, cmd string, args ...[]byte) Op {
	return Op{Req: protocol.TxnReq([]byte(cmd), args...), Update: update}
}

// Action implements Mix.
func (m *TwitterMix) Action(r *sim.Rand, uid int, seq uint64, ops []Op) []Op {
	seq--
	return m.steps(r, uid, &seq, ops)
}

func (m *TwitterMix) steps(r *sim.Rand, uid int, ids *uint64, ops []Op) []Op {
	if r.Float64() < m.cfg.UpdateRatio {
		if r.Float64() < 0.7 {
			// Post: allocate a post id (getUID in Figure 4 — no cross-client
			// ordering), store the tweet, push it onto the poster's timeline
			// and the global timeline.
			*ids++
			pid := fmt.Sprintf("%c%d-%d", m.tag, uid, *ids)
			return append(ops,
				redisCmd(true, "INCR", []byte("next_post_id")),
				redisCmd(true, "SET", []byte("post:"+pid), m.post),
				redisCmd(true, "LPUSH", []byte(fmt.Sprintf("timeline:%d", uid)), []byte(pid)),
				redisCmd(true, "LPUSH", []byte("timeline:global"), []byte(pid)),
			)
		}
		// Follow: two set insertions.
		other := r.Intn(m.cfg.Users)
		return append(ops,
			redisCmd(true, "SADD", []byte(fmt.Sprintf("followers:%d", other)), []byte(fmt.Sprintf("%d", uid))),
			redisCmd(true, "SADD", []byte(fmt.Sprintf("following:%d", uid)), []byte(fmt.Sprintf("%d", other))),
		)
	}
	// Home timeline: fetch the post list, then two posts. Only the first
	// 1000 users' first posts are seeded (harness prefill), so the read
	// folds who into that range.
	who := r.Intn(m.cfg.Users)
	return append(ops,
		redisCmd(false, "LRANGE", []byte(fmt.Sprintf("timeline:%d", who)),
			[]byte("0"), []byte(fmt.Sprintf("%d", m.cfg.TimelineLen-1))),
		redisCmd(false, "GET", []byte(fmt.Sprintf("post:c%d-1", who%1000))),
		redisCmd(false, "GET", []byte("post:latest")),
	)
}
