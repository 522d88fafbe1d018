package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// updateRequest, updateResponse, wireChange, toModel and decodeUpdateJSON
// are the encoding/json decoding of /update that decodeUpdate replaced,
// kept as its oracle and as the baseline of BenchmarkDecodeUpdate.
// encoding/json accepts more than the schema (folded and escaped keys,
// null, repeated keys, bytes after the object); decodeUpdate accepts only
// the schema. wireOf is the struct form WireChange replaced: put through
// json.Marshal, it is the oracle of WireChange's bytes.

// updateRequest is the /update body: one or more changes committed
// atomically as a unit. Wait=true blocks the response until the batch
// containing the request has been committed and is visible to readers.
type updateRequest struct {
	Changes []wireChange `json:"changes"`
	Wait    bool         `json:"wait"`
}

type updateResponse struct {
	Queued    int  `json:"queued"`
	Committed bool `json:"committed"`
	// Seq is the last committed batch at response time; with wait=true the
	// request's changes are included in it.
	Seq int `json:"seq"`
}

// wireChange is the JSON encoding of one model.Change. Kind selects which
// field group must be present.
type wireChange struct {
	Kind       string          `json:"kind"`
	Post       *wirePost       `json:"post,omitempty"`
	Comment    *wireComment    `json:"comment,omitempty"`
	User       *wireUser       `json:"user,omitempty"`
	Friendship *wireFriendship `json:"friendship,omitempty"`
	Like       *wireLike       `json:"like,omitempty"`
}

type wirePost struct {
	ID        model.ID `json:"id"`
	Timestamp int64    `json:"timestamp"`
}

type wireComment struct {
	ID        model.ID `json:"id"`
	Timestamp int64    `json:"timestamp"`
	Parent    model.ID `json:"parent"`
	Post      model.ID `json:"post"`
}

type wireUser struct {
	ID model.ID `json:"id"`
}

type wireFriendship struct {
	User1 model.ID `json:"user1"`
	User2 model.ID `json:"user2"`
}

type wireLike struct {
	User    model.ID `json:"user"`
	Comment model.ID `json:"comment"`
}

// wireOf is ch in the struct form.
func wireOf(ch model.Change) wireChange {
	w := wireChange{}
	switch ch.Kind {
	case model.KindAddPost:
		w.Kind = "add-post"
		w.Post = &wirePost{ID: ch.Post.ID, Timestamp: ch.Post.Timestamp}
	case model.KindAddComment:
		w.Kind = "add-comment"
		w.Comment = &wireComment{ID: ch.Comment.ID, Timestamp: ch.Comment.Timestamp,
			Parent: ch.Comment.ParentID, Post: ch.Comment.PostID}
	case model.KindAddUser:
		w.Kind = "add-user"
		w.User = &wireUser{ID: ch.User.ID}
	case model.KindAddFriendship, model.KindRemoveFriendship:
		w.Kind = "add-friendship"
		if ch.Kind == model.KindRemoveFriendship {
			w.Kind = "remove-friendship"
		}
		w.Friendship = &wireFriendship{User1: ch.Friendship.User1, User2: ch.Friendship.User2}
	case model.KindAddLike, model.KindRemoveLike:
		w.Kind = "add-like"
		if ch.Kind == model.KindRemoveLike {
			w.Kind = "remove-like"
		}
		w.Like = &wireLike{User: ch.Like.UserID, Comment: ch.Like.CommentID}
	}
	return w
}

func (c *wireChange) toModel() (model.Change, error) {
	need := func(field string, ok bool) error {
		if !ok {
			return fmt.Errorf("kind %q requires the %q field", c.Kind, field)
		}
		return nil
	}
	switch c.Kind {
	case "add-post":
		if err := need("post", c.Post != nil); err != nil {
			return model.Change{}, err
		}
		return model.Change{Kind: model.KindAddPost,
			Post: model.Post{ID: c.Post.ID, Timestamp: c.Post.Timestamp}}, nil
	case "add-comment":
		if err := need("comment", c.Comment != nil); err != nil {
			return model.Change{}, err
		}
		return model.Change{Kind: model.KindAddComment,
			Comment: model.Comment{ID: c.Comment.ID, Timestamp: c.Comment.Timestamp,
				ParentID: c.Comment.Parent, PostID: c.Comment.Post}}, nil
	case "add-user":
		if err := need("user", c.User != nil); err != nil {
			return model.Change{}, err
		}
		return model.Change{Kind: model.KindAddUser, User: model.User{ID: c.User.ID}}, nil
	case "add-friendship", "remove-friendship":
		if err := need("friendship", c.Friendship != nil); err != nil {
			return model.Change{}, err
		}
		kind := model.KindAddFriendship
		if c.Kind == "remove-friendship" {
			kind = model.KindRemoveFriendship
		}
		return model.Change{Kind: kind,
			Friendship: model.Friendship{User1: c.Friendship.User1, User2: c.Friendship.User2}}, nil
	case "add-like", "remove-like":
		if err := need("like", c.Like != nil); err != nil {
			return model.Change{}, err
		}
		kind := model.KindAddLike
		if c.Kind == "remove-like" {
			kind = model.KindRemoveLike
		}
		return model.Change{Kind: kind,
			Like: model.Like{UserID: c.Like.User, CommentID: c.Like.Comment}}, nil
	default:
		return model.Change{}, fmt.Errorf("unknown change kind %q", c.Kind)
	}
}

// decodeUpdateJSON decodes an /update body as handleUpdate did with
// encoding/json.
func decodeUpdateJSON(body []byte) ([]model.Change, bool, error) {
	var req updateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, false, err
	}
	if len(req.Changes) == 0 {
		return nil, false, errors.New("no changes")
	}
	changes := make([]model.Change, len(req.Changes))
	for i := range req.Changes {
		ch, err := req.Changes[i].toModel()
		if err != nil {
			return nil, false, fmt.Errorf("change %d: %v", i, err)
		}
		changes[i] = ch
	}
	return changes, req.Wait, nil
}

var ingest struct {
	once   sync.Once
	bodies [][]byte
}

// ingestBodies are the /update bodies of perfbench's ingest-sf128
// workload, seed 1: the datagen sf-128 insert-only stream, 1,024 change
// sets, each encoded as perfbench encodes it (wait=false but the last).
func ingestBodies(tb testing.TB) [][]byte {
	ingest.once.Do(func() {
		sets := datagen.Generate(datagen.Config{ScaleFactor: 128, Seed: 1, ChangeSets: 1024}).ChangeSets
		for i, set := range sets {
			ingest.bodies = append(ingest.bodies, encodeUpdate(set.Changes, i == len(sets)-1))
		}
	})
	if len(ingest.bodies) == 0 {
		tb.Fatal("no ingest bodies")
	}
	return ingest.bodies
}

// encodeUpdate is the /update body of changes as perfbench and
// internal/loadgen encode it: WireChange values through json.Marshal.
func encodeUpdate(changes []model.Change, wait bool) []byte {
	wire := make([]any, len(changes))
	for i, ch := range changes {
		wire[i] = WireChange(ch)
	}
	return marshal(map[string]any{"changes": wire, "wait": wait})
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// schemaBodies are bodies within the schema, at its edges: the README's
// example, keys in any order, wait absent, JSON whitespace around the
// object, and the int64 bounds.
var schemaBodies = []string{
	`{
  "changes": [
    {"kind": "add-user", "user": {"id": 90001}},
    {"kind": "add-like", "like": {"user": 90001, "comment": 2000001}}
  ],
  "wait": true
}`,
	"\t{\"changes\":[{\"user\":{\"id\":1},\"kind\":\"add-user\"},{\"like\":{\"comment\":3,\"user\":2},\"kind\":\"remove-like\"}]}\r\n ",
	`{"wait":false,"changes":[{"post":{"timestamp":-1,"id":0},"kind":"add-post"}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":9223372036854775807}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":-9223372036854775808}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":-0}}]}`,
}

// quirkBodies are bodies outside the schema, which decodeUpdate rejects:
// encoding/json's rules beyond the schema, one or more bodies per rule,
// whether encoding/json accepts them or not, and syntax errors.
var quirkBodies = []string{
	// encoding/json matches keys as bytes.EqualFold does.
	`{"CHANGES":[{"KIND":"add-user","USER":{"ID":1}}],"WAIT":true}`,
	"{\"changes\":[{\"\u212Aind\":\"add-user\",\"u\u017Fer\":{\"id\":1}}]}",
	`{"changes":[{"\u212aind":"add-user","u\u017fer":{"\u0130d":1}}]}`,
	`{"changes":[{"kind":"ADD-USER","user":{"id":1}}]}`,
	// It decodes escapes in keys and strings.
	`{"ch\u0061nges":[{"kind":"add\u002duser","user":{"\u0069d":1}}],"w\u0061it":true}`,
	`{"changes":[{"kind":"add-user\ud800","user":{"id":1}}]}`,
	`{"changes":[{"kind":"\ud83d\ude00","user":{"id":1}}]}`,
	"{\"changes\":[{\"kind\":\"add-user\xff\",\"user\":{\"id\":1}}]}",
	// null leaves an int at 0 and a group absent.
	`{"changes":[{"kind":"add-user","user":{"id":null}}]}`,
	`{"changes":[{"kind":"add-user","user":null}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":5},"user":null,"user":{}}]}`,
	`{"changes":[{"kind":"add-user","kind":null,"user":{"id":5}}],"wait":null}`,
	`{"changes":[null]}`,
	`{"changes":null}`,
	// A repeated group merges into the earlier one.
	`{"changes":[{"kind":"add-like","like":{"user":1},"like":{"comment":2}}]}`,
	// A repeated top-level key wins last; a repeated "changes" array
	// decodes element by element into the one before it.
	`{"wait":true,"changes":[{"kind":"add-user","user":{"id":1}}],"wait":false}`,
	`{"changes":[{"kind":"add-user","user":{"id":1}},{"kind":"add-post","post":{"id":2}}],"changes":[{"user":{"id":3}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1}},{"kind":"add-user","user":{"id":2}}],"changes":[null],"changes":[{},{}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1}}],"changes":[],"changes":[{}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1}}],"changes":null,"changes":[{"user":{"id":2}}]}`,
	// A missing field is zero, and a group the kind does not use is
	// ignored.
	`{"changes":[{"kind":"add-post","post":{"id":1}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1},"post":{"id":2,"timestamp":3}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1},"post":{}}]}`,
	// Bytes after the top-level object are ignored.
	`{"changes":[{"kind":"add-user","user":{"id":1}}]} trailing ] {`,
	// encoding/json rejects these too: a fraction, exponent or
	// out-of-range id, a non-bool wait, an unknown key at any level, no
	// changes, and whatever is not one object.
	`{"changes":[{"kind":"add-user","user":{"id":1.0}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1e3}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":9223372036854775808}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":-9223372036854775809}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":01}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1}}],"wait":1}`,
	`{"changes":[{"kind":"add-user","user":{"id":1}}],"wait":"true"}`,
	`{"changes":[{"kind":"add-user","user":{"id":1}}],"extra":0}`,
	`{"changes":[{"kind":"add-user","user":{"id":1},"extra":0}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1,"extra":0}}]}`,
	`{"changes":[{"kind":"add-user","user":{"id":1},"post":{"extra":0}}]}`,
	`{"changes":[]}`, `{"wait":true}`, `{}`,
	`null`, `[]`, `"changes"`, ``, ` `, `{`, `{"changes":[{"kind":"add-user","user":{"id":1}}]`,
	`{"changes":[{"kind":"add-user","user":{"id":1}},]}`, `{"changes":[{"kind":"add-user","user":{"id":1}}],}`,
}

// TestDecodeUpdateAcceptsOnlyTheSchema decodes every schema body as
// encoding/json does and rejects every quirk body, naming a byte offset.
func TestDecodeUpdateAcceptsOnlyTheSchema(t *testing.T) {
	for _, body := range schemaBodies {
		want, wantWait, err := decodeUpdateJSON([]byte(body))
		if err != nil {
			t.Fatalf("encoding/json rejects %q: %v", body, err)
		}
		if got, gotWait, err := decodeUpdate([]byte(body)); err != nil || gotWait != wantWait || !slices.Equal(got, want) {
			t.Errorf("decodeUpdate(%q) = %+v wait=%v error %v, want %+v wait=%v", body, got, gotWait, err, want, wantWait)
		}
	}
	for _, body := range quirkBodies {
		if got, _, err := decodeUpdate([]byte(body)); err == nil || !strings.Contains(err.Error(), " at byte ") {
			t.Errorf("decodeUpdate(%q) = %+v, error %v; want an error naming a byte offset", body, got, err)
		}
	}
}

// FuzzDecodeUpdate holds decodeUpdate to the encoding/json decoding it
// replaced, which accepts more than the schema: (a) every body
// decodeUpdate accepts, encoding/json accepts with the same changes and
// wait flag, and every body it rejects, it rejects naming a byte offset;
// (b) every body encoding/json accepts, re-encoded as clients encode it
// (encodeUpdate), decodeUpdate decodes to the same changes and wait flag,
// and WireChange encodes each of its changes to the bytes json.Marshal
// writes for the change's struct form (wireOf). With (a), every body
// decodeUpdate accepts re-encodes through WireChange to the same changes.
func FuzzDecodeUpdate(f *testing.F) {
	for _, b := range ingestBodies(f)[:8] {
		f.Add(b)
	}
	for _, b := range append(schemaBodies, quirkBodies...) {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantWait, wantErr := decodeUpdateJSON(body)
		got, gotWait, err := decodeUpdate(body)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), " at byte ") {
				t.Errorf("body %q: error %q names no byte offset", body, err)
			}
		case wantErr != nil:
			t.Fatalf("body %q: decodeUpdate gives %+v wait=%v, encoding/json error %v", body, got, gotWait, wantErr)
		case gotWait != wantWait || !slices.Equal(got, want):
			t.Fatalf("body %q: decodeUpdate gives %+v wait=%v, encoding/json %+v wait=%v", body, got, gotWait, want, wantWait)
		}
		if wantErr == nil {
			for _, ch := range want {
				if b, o := WireChange(ch), marshal(wireOf(ch)); !bytes.Equal(b, o) {
					t.Fatalf("body %q: WireChange(%+v) = %s, the struct form %s", body, ch, b, o)
				}
			}
			canon := encodeUpdate(want, wantWait)
			if got, gotWait, err := decodeUpdate(canon); err != nil || gotWait != wantWait || !slices.Equal(got, want) {
				t.Fatalf("body %q re-encoded as %s: decodeUpdate gives %+v wait=%v error %v, want %+v wait=%v",
					body, canon, got, gotWait, err, want, wantWait)
			}
		}
	})
}

// TestDecodeUpdateErrorsNameTheChange checks that every rejection of a
// change names its index, whether the parse or the kind rules reject it.
func TestDecodeUpdateErrorsNameTheChange(t *testing.T) {
	const ok = `{"kind":"add-user","user":{"id":1}}`
	for _, bad := range []string{
		`{"kind":"add-user","user":{"id":1},"extra":0}`,
		`{"kind":"add-user","user":{"id":"1"}}`,
		`{"kind":"add-user","user":{"id":1.5}}`,
		`{"kind":"add-user","user":{"id":99999999999999999999}}`,
		`{"kind":"add-user","user":{"id":1}`,
		`{"kind":"add-user"}`,
		`{"kind":"explode","user":{"id":1}}`,
		`{"kind":"add-user","kind":"add-user","user":{"id":1}}`,
		`{"kind":null,"user":{"id":1}}`,
		`{"user":{"id":1}}`,
		`{"kind":"add-post","post":{"id":1}}`,
		`{"kind":"add-user","user":{"id":1},"like":{"user":1,"comment":2}}`,
		`{"kind":"add\u002duser","user":{"id":1}}`,
		`7`,
	} {
		body := `{"changes":[` + ok + `,` + bad + `,` + ok + `]}`
		if _, _, err := decodeUpdate([]byte(body)); err == nil || !strings.HasPrefix(err.Error(), "change 1: ") {
			t.Errorf("%s: error %v, want one naming change 1", bad, err)
		}
	}
}

// TestWireChangeBytes pins WireChange's encoding of every kind, which
// perfbench and internal/loadgen post: it is the form decodeUpdate reads,
// and the bytes json.Marshal writes for the struct form. A kind outside
// the table encodes as {"kind":""}, which decodeUpdate rejects.
func TestWireChangeBytes(t *testing.T) {
	for _, c := range []struct {
		ch   model.Change
		want string
	}{
		{model.Change{Kind: model.KindAddPost, Post: model.Post{ID: 1000001, Timestamp: -7}},
			`{"kind":"add-post","post":{"id":1000001,"timestamp":-7}}`},
		{model.Change{Kind: model.KindAddComment, Comment: model.Comment{ID: 2000001, Timestamp: 1500000000, ParentID: 1000001, PostID: 1000001}},
			`{"kind":"add-comment","comment":{"id":2000001,"timestamp":1500000000,"parent":1000001,"post":1000001}}`},
		{model.Change{Kind: model.KindAddUser, User: model.User{ID: 0}},
			`{"kind":"add-user","user":{"id":0}}`},
		{model.Change{Kind: model.KindAddFriendship, Friendship: model.Friendship{User1: 3, User2: -9223372036854775808}},
			`{"kind":"add-friendship","friendship":{"user1":3,"user2":-9223372036854775808}}`},
		{model.Change{Kind: model.KindRemoveFriendship, Friendship: model.Friendship{User1: 9223372036854775807, User2: 4}},
			`{"kind":"remove-friendship","friendship":{"user1":9223372036854775807,"user2":4}}`},
		{model.Change{Kind: model.KindAddLike, Like: model.Like{UserID: 5, CommentID: 2000001}},
			`{"kind":"add-like","like":{"user":5,"comment":2000001}}`},
		{model.Change{Kind: model.KindRemoveLike, Like: model.Like{UserID: 6, CommentID: 2000002}},
			`{"kind":"remove-like","like":{"user":6,"comment":2000002}}`},
	} {
		b, err := json.Marshal(WireChange(c.ch))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("WireChange(%v) = %s, want %s", c.ch.Kind, b, c.want)
		}
		if o, err := json.Marshal(wireOf(c.ch)); err != nil || string(o) != c.want {
			t.Errorf("struct form of %v = %s, %v; want %s", c.ch.Kind, o, err, c.want)
		}
		body := `{"changes":[` + string(b) + `]}`
		if got, _, err := decodeUpdate([]byte(body)); err != nil || len(got) != 1 || got[0] != c.ch {
			t.Errorf("decodeUpdate(%s) = %+v, %v; want %+v", body, got, err, c.ch)
		}
	}
	b := WireChange(model.Change{Kind: model.Kinds, User: model.User{ID: 1}})
	if string(b) != `{"kind":""}` {
		t.Errorf("WireChange of kind %d = %s, want {\"kind\":\"\"}", model.Kinds, b)
	}
	if _, _, err := decodeUpdate([]byte(`{"changes":[` + string(b) + `]}`)); err == nil {
		t.Errorf("decodeUpdate accepts %s", b)
	}
}

// TestUpdateAckMatchesWriteJSON pins the pre-encoded /update
// acknowledgement to what writeJSON writes for the same updateResponse:
// the bytes and the Content-Type, from the handler and from
// appendUpdateResponse alone.
func TestUpdateAckMatchesWriteJSON(t *testing.T) {
	srv, err := New(Config{Dataset: datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 7})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, wait := range []bool{true, false} {
		body := fmt.Sprintf(`{"changes":[{"kind":"add-user","user":{"id":%d}},{"kind":"add-user","user":{"id":%d}}],"wait":%v}`,
			9200000+len(fmt.Sprint(wait)), 9300000+len(fmt.Sprint(wait)), wait)
		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body)))
		if got.Code != http.StatusOK {
			t.Fatalf("status %d: %s", got.Code, got.Body)
		}
		var resp updateResponse
		if err := json.Unmarshal(got.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Queued != 2 || resp.Committed != wait {
			t.Errorf("acknowledged %+v for two changes, wait=%v", resp, wait)
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, resp)
		if got.Body.String() != want.Body.String() {
			t.Errorf("handler wrote %q, writeJSON %q", got.Body, want.Body)
		}
		if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
			t.Errorf("handler Content-Type %q, writeJSON %q", g, w)
		}
	}
	for _, r := range []updateResponse{{}, {Queued: 1, Committed: true, Seq: 1}, {Queued: 19, Seq: 1<<62 + 7}} {
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, r)
		if got := appendUpdateResponse([]byte("x"), r.Queued, r.Committed, r.Seq); string(got) != "x"+want.Body.String() {
			t.Errorf("appendUpdateResponse(%+v) = %q, writeJSON %q", r, got[1:], want.Body)
		}
	}
}

// TestDecodeUpdateAllocs allows decodeUpdate 1 allocation per ingest-sf128
// body, the result: the changes are parsed on the stack, or, in a body of
// more than 16 changes, into the array that is returned. The encoding/json
// decoding made 32.
func TestDecodeUpdateAllocs(t *testing.T) {
	for i, body := range ingestBodies(t) {
		if a := testing.AllocsPerRun(3, func() { _, _, _ = decodeUpdate(body) }); a > 1 {
			t.Fatalf("body %d (%d bytes) takes %.0f allocations to decode, want 1", i, len(body), a)
		}
	}
}

var decodeSink []model.Change

// BenchmarkDecodeUpdate decodes the ingest-sf128 bodies, one body per op:
// onepass is decodeUpdate, encoding-json the decoding it replaced. It is
// the HTTP-layer rung under perfbench's update_p50_ms: each wait=false
// acknowledgement of ingest-sf128 waits for one such decode.
func BenchmarkDecodeUpdate(b *testing.B) {
	bodies := ingestBodies(b)
	for _, c := range []struct {
		name   string
		decode func([]byte) ([]model.Change, bool, error)
	}{{"onepass", decodeUpdate}, {"encoding-json", decodeUpdateJSON}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			changes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if decodeSink, _, err = c.decode(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
				changes += len(decodeSink)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(changes), "ns/change")
		})
	}
}

// oneMiBPlusOne is a valid /update body of maxUpdateBytes+1 bytes whose
// object closes on its last byte, so no reader can finish it inside the cap.
func oneMiBPlusOne() string {
	head := `{"wait":true,"changes":[{"kind":"add-user","user":{"id":9100999}}]`
	return head + strings.Repeat(" ", maxUpdateBytes-len(head)) + "}"
}

// TestUpdateContract is the /update status-code table: each row's body is
// answered with its code, and a rejected request leaves seq unchanged.
// The codes were recorded against the encoding/json decoder this
// endpoint used before its one-pass parser, except where the schema is
// stricter: case-folded or escaped keys and kinds, bytes after the object,
// a repeated key (group or other), null and a group missing a field or
// beside another group are 400.
func TestUpdateContract(t *testing.T) {
	srv, err := New(Config{Dataset: datagen.Generate(datagen.Config{ScaleFactor: 1, Seed: 7})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const user = `{"kind":"add-user","user":{"id":9100001}}`
	for _, row := range []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"changes":[` + user + `]`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"not an object", `[` + user + `]`, http.StatusBadRequest},
		{"unknown top-level key", `{"changes":[` + user + `],"wait":true,"retry":1}`, http.StatusBadRequest},
		{"unknown change key", `{"changes":[{"kind":"add-user","user":{"id":9100001},"color":"red"}],"wait":true}`, http.StatusBadRequest},
		{"unknown group key", `{"changes":[{"kind":"add-user","user":{"id":9100001,"name":"x"}}],"wait":true}`, http.StatusBadRequest},
		{"unknown key in an unused group", `{"changes":[{"kind":"add-user","user":{"id":9100001},"post":{"title":1}}],"wait":true}`, http.StatusBadRequest},
		{"unknown kind", `{"changes":[{"kind":"explode"}],"wait":true}`, http.StatusBadRequest},
		{"missing group", `{"changes":[{"kind":"add-user"}],"wait":true}`, http.StatusBadRequest},
		{"null group", `{"changes":[{"kind":"add-user","user":{"id":9100001},"user":null}],"wait":true}`, http.StatusBadRequest},
		{"wrong type", `{"changes":[{"kind":"add-user","user":{"id":"9100001"}}],"wait":true}`, http.StatusBadRequest},
		{"fraction", `{"changes":[{"kind":"add-user","user":{"id":9100001.5}}],"wait":true}`, http.StatusBadRequest},
		{"exponent", `{"changes":[{"kind":"add-user","user":{"id":9e6}}],"wait":true}`, http.StatusBadRequest},
		{"int64 overflow", `{"changes":[{"kind":"add-user","user":{"id":9223372036854775808}}],"wait":true}`, http.StatusBadRequest},
		{"non-bool wait", `{"changes":[` + user + `],"wait":1}`, http.StatusBadRequest},
		{"changes null", `{"changes":null,"wait":true}`, http.StatusBadRequest},
		{"changes empty", `{"changes":[],"wait":true}`, http.StatusBadRequest},
		{"case-folded keys", `{"CHANGES":[{"KIND":"add-user","User":{"ID":9100002}}],"Wait":true}`, http.StatusBadRequest},
		{"kelvin sign and long s keys", "{\"changes\":[{\"\u212Aind\":\"add-user\",\"u\u017Fer\":{\"id\":9100003}}],\"wait\":true}", http.StatusBadRequest},
		{"escaped kind", `{"changes":[{"kind":"add\u002duser","user":{"id":9100004}}],"wait":true}`, http.StatusBadRequest},
		{"trailing bytes", `{"changes":[{"kind":"add-user","user":{"id":9100005}}],"wait":true} trailing {`, http.StatusBadRequest},
		{"repeated group", `{"changes":[{"kind":"add-user","user":{"id":9100006}},{"kind":"add-user","user":{"id":9100007}},` +
			`{"kind":"add-friendship","friendship":{"user1":9100006},"friendship":{"user2":9100007}}],"wait":true}`, http.StatusBadRequest},
		{"null id", `{"changes":[{"kind":"add-user","user":{"id":9100008},"user":{"id":null}}],"wait":true}`, http.StatusBadRequest},
		{"duplicate key", `{"changes":[` + user + `],"wait":true,"wait":true}`, http.StatusBadRequest},
		{"group missing a field", `{"changes":[{"kind":"add-post","post":{"id":9100009}}],"wait":true}`, http.StatusBadRequest},
		{"second group", `{"changes":[{"kind":"add-user","user":{"id":9100010},"post":{"id":9100010,"timestamp":1}}],"wait":true}`, http.StatusBadRequest},
		{"keys in any order", `{"wait":true,"changes":[{"user":{"id":9100002},"kind":"add-user"}]}`, http.StatusOK},
		{"whitespace after the object", "{\"changes\":[{\"kind\":\"add-user\",\"user\":{\"id\":9100003}}],\"wait\":true} \r\n\t", http.StatusOK},
		{"1 MiB + 1 byte", oneMiBPlusOne(), http.StatusRequestEntityTooLarge},
		{"dangling reference", `{"changes":[{"kind":"add-like","like":{"user":9100002,"comment":999999999}}],"wait":true}`, http.StatusConflict},
	} {
		t.Run(row.name, func(t *testing.T) {
			before := srv.Snapshot().Seq
			resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != row.code {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, row.code, bytes.TrimSpace(msg))
			}
			after := srv.Snapshot().Seq
			switch {
			case row.code != http.StatusOK && after != before:
				t.Errorf("rejected request moved seq from %d to %d", before, after)
			case row.code == http.StatusOK && after != before+1:
				t.Errorf("waited request moved seq from %d to %d, want %d", before, after, before+1)
			}
			if q := srv.QueueDepth(); q != 0 {
				t.Errorf("queue depth %d after the request, want 0", q)
			}
		})
	}
}
