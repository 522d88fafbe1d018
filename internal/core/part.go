package core

import "repro/internal/model"

// Engines index nodes the way model.State does, and resolve nothing
// themselves: the State validates every change and resolves it to node
// indices (model.Ref) once, and an engine consumes those. The served Q2
// engines hold only the comments someone has liked; they number them
// compactly in the order they receive them, and a Space records which
// State comment each local index is. Ids and timestamps are read back
// through the State.

// Space maps an engine's compact local comment indices to the State's:
// local index i is State index Of[i]. The shard router assigns the local
// indices, in the order it hands the comments to the engines, and records
// them here. A nil *Space is the identity: the engine holds every
// comment.
type Space struct{ Of []int32 }

// state returns the State index of local index i.
func (sp *Space) state(i int) int {
	if sp == nil {
		return i
	}
	return int(sp.Of[i])
}

// Nodes reads the id and timestamp of a State's posts and comments by
// State index, the only fields an engine ranks by: the *model.State
// itself, or a *model.Nodes prefix of it, which an engine applying on
// another goroutine than the State's owner reads instead.
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
// Attach loads the engine from refs, the adds that build its part (nodes
// before the edges on them); UpdateRefs applies one change set's refs and
// reevaluates. Load and Update are adapters that resolve through a State
// of the engine's own. Stats sizes the state the engine keeps.
type Engine interface {
	Solution
	Attach(p Part, refs []model.Ref) error
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
	return a.self.Attach(Part{Nodes: st}, st.Refs())
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
