package core

import "repro/internal/model"

// Engines index nodes the way model.State does, and resolve nothing
// themselves: the State validates every change and resolves it to node
// indices (model.Ref) once, and an engine consumes those. An engine
// attaches from a View of the State, reading its node counts and edge
// keys in place. The served Q2 engines hold only the comments someone has
// liked; they number them compactly, and a Space records which State
// comment each local index is. Ids and timestamps are read back through
// the State.

// Space maps an engine's compact local comment indices to the State's and
// back: local index i is State index Of[i], and State comment c is local
// index Local[c], or −1 while the engine does not hold it. LikedSpace
// numbers the comments at load; the shard router then numbers each
// comment it hands the engines next, in that order, and records it here.
// A nil *Space is the identity: the engine holds every comment.
type Space struct{ Of, Local []int32 }

// LikedSpace returns the space of the comments some like of v reaches, in
// State order: the comments the served Q2 engines hold at load.
func LikedSpace(v *model.View) *Space {
	sp := &Space{Local: make([]int32, v.Len(model.KeyComment))}
	for k, n := 0, v.Len(model.KeyLike); k < n; k++ {
		_, c := v.Like(k)
		sp.Local[c] = 1
	}
	for ci, liked := range sp.Local {
		sp.Local[ci] = -1
		if liked == 1 {
			sp.Local[ci] = int32(len(sp.Of))
			sp.Of = append(sp.Of, int32(ci))
		}
	}
	return sp
}

// state returns the State index of local index i.
func (sp *Space) state(i int) int {
	if sp == nil {
		return i
	}
	return int(sp.Of[i])
}

// local returns the local index of State comment c.
func (sp *Space) local(c int32) int32 {
	if sp == nil {
		return c
	}
	return sp.Local[c]
}

// held returns how many of v's comments the space holds.
func (sp *Space) held(v *model.View) int {
	if sp == nil {
		return v.Len(model.KeyComment)
	}
	return len(sp.Of)
}

// Nodes reads the id and timestamp of a State's posts and comments by
// State index, the only fields an engine ranks by: the *model.State
// itself, or the *model.Nodes of a View of it, which an engine running on
// another goroutine than the State's owner (the shard runtime's audit)
// reads instead.
type Nodes interface {
	PostIDTime(i int) (model.ID, int64)
	CommentIDTime(i int) (model.ID, int64)
}

// Part is the slice of a State an engine holds: every post and user, and
// the comments its space lists. Comments is nil also for engines that read
// no comment's id (Q1). The engine reads a *model.State only while the
// State's owner is not applying changes: between commits, or inside one.
type Part struct {
	Nodes    Nodes
	Comments *Space
}

// postEntry and commentEntry are the ranking entries of a post and of a
// local comment index at score.
func (p *Part) postEntry(i int, score int64) Entry {
	id, ts := p.Nodes.PostIDTime(i)
	return Entry{ID: id, Score: score, Timestamp: ts}
}

func (p *Part) commentEntry(i int, score int64) Entry {
	id, ts := p.Nodes.CommentIDTime(p.Comments.state(i))
	return Entry{ID: id, Score: score, Timestamp: ts}
}

// Engine is a GraphBLAS engine: a Solution that also runs on resolved
// changes, in the indices of the part of a State it holds (local comment
// indices, State post and user indices), as the sharded runtime drives it.
// Attach loads the engine from v, a View of the State p is a part of: it
// takes the node counts from v and the part's comments from its space,
// and reads every friendship and like key in place (each like's comment
// in the space). UpdateRefs applies one change set's refs and reevaluates.
// Load and Update are adapters that resolve through a State of the
// engine's own. Stats sizes the state the engine keeps.
type Engine interface {
	Solution
	Attach(p Part, v *model.View) error
	UpdateRefs(refs []model.Ref) (Result, error)
	Stats() EngineStats
}

// standalone implements Solution's Load and Update for an engine that runs
// on its own, as in the paper's harness: it resolves through a State of
// its own and feeds the engine the resolved changes.
//
// Two rules differ from a served State's, both about data no engine reads.
// An engine reads a comment's root post, never its parent, and the Q2
// engines are fed a view without the comments nobody likes, which other
// comments may reply to: so the engine's State files each comment directly
// under its root post. And the engines' matrices are boolean, so an insert
// stream that adds a like or friendship the State already holds changes
// nothing: Update drops an add of an edge that is present at that point
// of the set (see model.State.DropHeldAdds), where a served State would
// reject it as a duplicate. Every other rule is checked as given.
type standalone struct {
	self    Engine
	st      *model.State
	changes []model.Change
}

// Load implements Solution.
func (a *standalone) Load(snap *model.Snapshot) error {
	s := *snap
	s.Comments = make([]model.Comment, len(snap.Comments))
	for i, c := range snap.Comments {
		c.ParentID = c.PostID
		s.Comments[i] = c
	}
	st, err := model.NewState(&s)
	if err != nil {
		return err
	}
	a.st = st
	view, release := st.View()
	defer release()
	return a.self.Attach(Part{Nodes: st}, view)
}

// Update implements Solution.
func (a *standalone) Update(cs *model.ChangeSet) (Result, error) {
	a.changes = a.st.DropHeldAdds(a.changes[:0], cs.Changes)
	for i := range a.changes {
		if ch := &a.changes[i]; ch.Kind == model.KindAddComment {
			ch.Comment.ParentID = ch.Comment.PostID
		}
	}
	refs, err := a.st.Apply(a.changes)
	if err != nil {
		return nil, err
	}
	return a.self.UpdateRefs(refs)
}
