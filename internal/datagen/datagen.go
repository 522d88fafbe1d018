// Package datagen generates deterministic synthetic social networks with
// the shape of the contest's LDBC-Datagen-derived inputs: Facebook-like
// (power-law) friend degrees and like counts, comment trees rooted at
// posts, graph sizes doubling with the scale factor (Table II of the
// paper), and a sequence of small insert-only change sets whose total size
// is independent of the scale factor — the regime in which incremental
// maintenance pays off.
//
// The contest shipped pre-generated CSV files; this package is the offline
// substitute, documented in README.md. Everything is driven by a seeded
// math/rand source, so a (scale factor, seed) pair always yields the same
// dataset.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Entity counts per unit of scale factor, calibrated against Table II of
// the paper: at scale factor 1 the graph has ≈1274 nodes and ≈2533 edges,
// and each doubling of the scale factor doubles both.
const (
	usersPerSF       = 280
	postsPerSF       = 102
	commentsPerSF    = 892
	friendshipsPerSF = 350
	likesPerSF       = 400

	// zipfS is the skew of the power-law samplers.
	zipfS = 1.4
)

// Config parameterizes generation.
type Config struct {
	// ScaleFactor is the graph size multiplier (1, 2, 4, … 1024 in the
	// paper). Must be ≥ 1.
	ScaleFactor int
	// Seed drives all randomness.
	Seed int64

	// ChangeSets is the number of update steps (default 20, as the
	// contest's live benchmark replays 20 change sets).
	ChangeSets int
	// MinChangesPerSet and MaxChangesPerSet bound each change set's size
	// (defaults 2 and 8); totals land in the 40–160 range of Table II's
	// #inserts row regardless of scale factor.
	MinChangesPerSet int
	MaxChangesPerSet int

	// RemovalFraction makes each change roll a removal (of an existing
	// like or friendship) with this probability instead of an insertion —
	// the paper's future-work "more realistic update operations, including
	// both insertions and removals". 0 (default) reproduces the contest's
	// insert-only stream.
	RemovalFraction float64
}

func (c Config) withDefaults() Config {
	if c.ScaleFactor < 1 {
		c.ScaleFactor = 1
	}
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.ChangeSets, 20)
	def(&c.MinChangesPerSet, 2)
	def(&c.MaxChangesPerSet, 8)
	return c
}

// Generate produces a dataset for the configuration. The result always
// passes model.Validate.
func Generate(cfg Config) *model.Dataset {
	cfg = cfg.withDefaults()
	g := newGenerator(cfg)
	g.generateInitial()
	g.generateChanges()
	return g.dataset
}

// generator carries the evolving state during generation.
type generator struct {
	cfg     Config
	rng     *rand.Rand
	dataset *model.Dataset

	nextTS int64

	// Entity pools, including entities added by change sets, so later
	// changes can reference earlier ones.
	userIDs    []model.ID
	postIDs    []model.ID
	commentIDs []model.ID
	// commentPost[i] is the root post of commentIDs[i].
	commentPost []model.ID
	// One power-law sampler per pool (see zipfPick).
	userZipf, postZipf, commentZipf zipfSampler

	// friendSeen dedupes undirected friendships; likeSeen dedupes likes.
	// The parallel lists keep existing edges samplable for removals.
	friendSeen map[[2]model.ID]struct{}
	likeSeen   map[[2]model.ID]struct{}
	friendList [][2]model.ID // canonical (min, max) user pairs
	likeList   [][2]model.ID // (user, comment) pairs

	nextUserID    model.ID
	nextPostID    model.ID
	nextCommentID model.ID
}

// Disjoint id ranges per kind keep datasets human-readable.
const (
	userIDBase    = 1
	postIDBase    = 1_000_001
	commentIDBase = 2_000_001
)

func newGenerator(cfg Config) *generator {
	return &generator{
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		dataset:       &model.Dataset{Snapshot: &model.Snapshot{}},
		friendSeen:    make(map[[2]model.ID]struct{}),
		likeSeen:      make(map[[2]model.ID]struct{}),
		nextUserID:    userIDBase,
		nextPostID:    postIDBase,
		nextCommentID: commentIDBase,
	}
}

func (g *generator) ts() int64 {
	g.nextTS++
	return g.nextTS
}

// zipfSampler is a pool's rand.Zipf, built for the pool's length n.
type zipfSampler struct {
	n int
	z *rand.Zipf
}

// zipfPick samples an index in [0, n) of the pool that z samples, with a
// power-law preference for *recent* entities (higher indices), the
// preferential-attachment shape of social activity: most interactions
// target recent, popular content. It builds a new rand.Zipf only when the
// pool has grown since its last draw; NewZipf draws nothing from the rng,
// so the stream is the one a sampler built per draw gives.
func (g *generator) zipfPick(z *zipfSampler, n int) int {
	if n <= 1 {
		return 0
	}
	if z.n != n {
		z.n, z.z = n, rand.NewZipf(g.rng, zipfS, 1, uint64(n-1))
	}
	return n - 1 - int(z.z.Uint64())
}

func (g *generator) newUser() model.User {
	u := model.User{ID: g.nextUserID}
	g.nextUserID++
	g.userIDs = append(g.userIDs, u.ID)
	return u
}

func (g *generator) newPost() model.Post {
	p := model.Post{ID: g.nextPostID, Timestamp: g.ts()}
	g.nextPostID++
	g.postIDs = append(g.postIDs, p.ID)
	return p
}

// newComment attaches to a random submission: with 30% probability directly
// to a (recent-skewed) post, otherwise to a (recent-skewed) comment,
// yielding trees whose depth grows with activity.
func (g *generator) newComment() model.Comment {
	var parent, root model.ID
	if len(g.commentIDs) == 0 || g.rng.Float64() < 0.3 {
		pi := g.zipfPick(&g.postZipf, len(g.postIDs))
		parent = g.postIDs[pi]
		root = parent
	} else {
		ci := g.zipfPick(&g.commentZipf, len(g.commentIDs))
		parent = g.commentIDs[ci]
		root = g.commentPost[ci]
	}
	c := model.Comment{ID: g.nextCommentID, Timestamp: g.ts(), ParentID: parent, PostID: root}
	g.nextCommentID++
	g.commentIDs = append(g.commentIDs, c.ID)
	g.commentPost = append(g.commentPost, root)
	return c
}

// newFriendship samples a fresh undirected edge between two power-law
// chosen users, or reports ok=false if it could not find one quickly.
func (g *generator) newFriendship() (model.Friendship, bool) {
	for attempt := 0; attempt < 32; attempt++ {
		a := g.userIDs[g.zipfPick(&g.userZipf, len(g.userIDs))]
		b := g.userIDs[g.rng.Intn(len(g.userIDs))]
		if a == b {
			continue
		}
		key := [2]model.ID{min64(a, b), max64(a, b)}
		if _, dup := g.friendSeen[key]; dup {
			continue
		}
		g.friendSeen[key] = struct{}{}
		g.friendList = append(g.friendList, key)
		return model.Friendship{User1: a, User2: b}, true
	}
	return model.Friendship{}, false
}

// newLike samples a fresh likes edge from a power-law chosen user to a
// recent-skewed comment.
func (g *generator) newLike() (model.Like, bool) {
	if len(g.commentIDs) == 0 {
		return model.Like{}, false
	}
	for attempt := 0; attempt < 32; attempt++ {
		u := g.userIDs[g.zipfPick(&g.userZipf, len(g.userIDs))]
		c := g.commentIDs[g.zipfPick(&g.commentZipf, len(g.commentIDs))]
		key := [2]model.ID{u, c}
		if _, dup := g.likeSeen[key]; dup {
			continue
		}
		g.likeSeen[key] = struct{}{}
		g.likeList = append(g.likeList, key)
		return model.Like{UserID: u, CommentID: c}, true
	}
	return model.Like{}, false
}

// removeFriendship samples an existing friendship for removal, keeping the
// bookkeeping consistent so the pair may be re-added later.
func (g *generator) removeFriendship() (model.Friendship, bool) {
	if len(g.friendList) == 0 {
		return model.Friendship{}, false
	}
	k := g.rng.Intn(len(g.friendList))
	key := g.friendList[k]
	g.friendList[k] = g.friendList[len(g.friendList)-1]
	g.friendList = g.friendList[:len(g.friendList)-1]
	delete(g.friendSeen, key)
	return model.Friendship{User1: key[0], User2: key[1]}, true
}

// removeLike samples an existing like for removal.
func (g *generator) removeLike() (model.Like, bool) {
	if len(g.likeList) == 0 {
		return model.Like{}, false
	}
	k := g.rng.Intn(len(g.likeList))
	key := g.likeList[k]
	g.likeList[k] = g.likeList[len(g.likeList)-1]
	g.likeList = g.likeList[:len(g.likeList)-1]
	delete(g.likeSeen, key)
	return model.Like{UserID: key[0], CommentID: key[1]}, true
}

func (g *generator) generateInitial() {
	cfg := g.cfg
	s := g.dataset.Snapshot
	sf := cfg.ScaleFactor
	for i := 0; i < usersPerSF*sf; i++ {
		s.Users = append(s.Users, g.newUser())
	}
	for i := 0; i < postsPerSF*sf; i++ {
		s.Posts = append(s.Posts, g.newPost())
	}
	for i := 0; i < commentsPerSF*sf; i++ {
		s.Comments = append(s.Comments, g.newComment())
	}
	for i := 0; i < friendshipsPerSF*sf; i++ {
		if f, ok := g.newFriendship(); ok {
			s.Friendships = append(s.Friendships, f)
		}
	}
	for i := 0; i < likesPerSF*sf; i++ {
		if l, ok := g.newLike(); ok {
			s.Likes = append(s.Likes, l)
		}
	}
}

// generateChanges emits the update stream. Kind mix: comments and likes
// dominate (40% each), friendships 15%, and occasionally a brand-new post
// or user (2.5% each) so the incremental engines must handle dimension
// growth of every entity kind.
func (g *generator) generateChanges() {
	cfg := g.cfg
	for k := 0; k < cfg.ChangeSets; k++ {
		var cs model.ChangeSet
		n := cfg.MinChangesPerSet
		if span := cfg.MaxChangesPerSet - cfg.MinChangesPerSet; span > 0 {
			n += g.rng.Intn(span + 1)
		}
		for i := 0; i < n; i++ {
			if cfg.RemovalFraction > 0 && g.rng.Float64() < cfg.RemovalFraction {
				if g.rng.Intn(2) == 0 {
					if l, ok := g.removeLike(); ok {
						cs.Changes = append(cs.Changes, model.Change{Kind: model.KindRemoveLike, Like: l})
						continue
					}
				}
				if f, ok := g.removeFriendship(); ok {
					cs.Changes = append(cs.Changes, model.Change{Kind: model.KindRemoveFriendship, Friendship: f})
					continue
				}
				// Nothing removable; fall through to an insertion.
			}
			switch roll := g.rng.Float64(); {
			case roll < 0.40:
				c := g.newComment()
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddComment, Comment: c})
				// A new comment usually arrives with a like or two.
				for g.rng.Float64() < 0.5 {
					u := g.userIDs[g.zipfPick(&g.userZipf, len(g.userIDs))]
					key := [2]model.ID{u, c.ID}
					if _, dup := g.likeSeen[key]; dup {
						break
					}
					g.likeSeen[key] = struct{}{}
					g.likeList = append(g.likeList, key)
					cs.Changes = append(cs.Changes, model.Change{
						Kind: model.KindAddLike,
						Like: model.Like{UserID: u, CommentID: c.ID},
					})
				}
			case roll < 0.80:
				if l, ok := g.newLike(); ok {
					cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddLike, Like: l})
				}
			case roll < 0.95:
				if f, ok := g.newFriendship(); ok {
					cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddFriendship, Friendship: f})
				}
			case roll < 0.975:
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddPost, Post: g.newPost()})
			default:
				cs.Changes = append(cs.Changes, model.Change{Kind: model.KindAddUser, User: g.newUser()})
			}
		}
		g.dataset.ChangeSets = append(g.dataset.ChangeSets, cs)
	}
}

func min64(a, b model.ID) model.ID {
	if a < b {
		return a
	}
	return b
}

func max64(a, b model.ID) model.ID {
	if a > b {
		return a
	}
	return b
}

// Describe summarizes a dataset in the shape of one Table II column.
func Describe(d *model.Dataset) string {
	return fmt.Sprintf("nodes=%d edges=%d inserts=%d",
		d.Snapshot.NodeCount(), d.Snapshot.EdgeCount(), d.TotalInserts())
}
