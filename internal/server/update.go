package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/model"
)

// maxUpdateBytes caps an /update body (on the order of ten thousand
// changes): a request is never split, so an unbounded body would be an
// unbounded commit. A larger body is answered 413 and nothing is enqueued.
const maxUpdateBytes = 1 << 20

// appendUpdateResponse appends the 200 body of /update,
// {"queued":N,"committed":B,"seq":S} and a newline, byte for byte what
// writeJSON encodes for the same three fields. Seq is the last committed
// batch at response time; with wait=true the request's changes are in it.
func appendUpdateResponse(b []byte, queued int, committed bool, seq int) []byte {
	b = append(b, `{"queued":`...)
	b = strconv.AppendInt(b, int64(queued), 10)
	b = append(b, `,"committed":`...)
	b = strconv.AppendBool(b, committed)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	return append(b, "}\n"...)
}

// The keys of the request and of a change, and of each field group by
// group, as the JSON tags of the struct form spell them.
var (
	requestFields = []string{"changes", "wait"}
	changeFields  = []string{"kind", "post", "comment", "user", "friendship", "like"}
	groupFields   = [...][]string{
		groupPost:       {"id", "timestamp"},
		groupComment:    {"id", "timestamp", "parent", "post"},
		groupUser:       {"id"},
		groupFriendship: {"user1", "user2"},
		groupLike:       {"user", "comment"},
	}
)

// groupNames are the field groups of a change: changeFields after "kind".
var groupNames = changeFields[1:]

// The field groups, as bits of changeMeta.groups and indices of groupNames.
const (
	groupPost = iota
	groupComment
	groupUser
	groupFriendship
	groupLike
)

// wireKinds are the change kinds by wire name, with the group each uses.
var wireKinds = []struct {
	name  string
	kind  model.ChangeKind
	group int
}{
	{"add-post", model.KindAddPost, groupPost},
	{"add-comment", model.KindAddComment, groupComment},
	{"add-user", model.KindAddUser, groupUser},
	{"add-friendship", model.KindAddFriendship, groupFriendship},
	{"add-like", model.KindAddLike, groupLike},
	{"remove-friendship", model.KindRemoveFriendship, groupFriendship},
	{"remove-like", model.KindRemoveLike, groupLike},
}

// changeMeta is what a change element holds beside its fields: its kind
// as 1 + an index of wireKinds (0 for none or an unknown name), the
// offset of the kind's string token (-1 while it has none), and a bit per
// present group. A group's fields are zero while its bit is clear.
type changeMeta struct {
	kind   uint8
	groups uint8
	kindAt int32
}

// updateDecoder parses one body. changes and meta are the elements of the
// last "changes" array, n of them; elements past n are kept, because a
// later "changes" array decodes into them again.
type updateDecoder struct {
	data    []byte
	off     int
	changes []model.Change
	meta    []changeMeta
	n       int
	wait    bool
	cur     int // the change being parsed, or -1
}

// decodeUpdate parses an /update body into its changes and its wait flag.
// The body is one JSON object:
//
//	{"changes": [change, ...], "wait": bool}
//
// and each change names its kind and carries the field group that kind
// uses (WireChange writes this form):
//
//	{"kind": "add-post",          "post":       {"id": n, "timestamp": n}}
//	{"kind": "add-comment",       "comment":    {"id": n, "timestamp": n, "parent": n, "post": n}}
//	{"kind": "add-user",          "user":       {"id": n}}
//	{"kind": "add-friendship",    "friendship": {"user1": n, "user2": n}}
//	{"kind": "remove-friendship", "friendship": {"user1": n, "user2": n}}
//	{"kind": "add-like",          "like":       {"user": n, "comment": n}}
//	{"kind": "remove-like",       "like":       {"user": n, "comment": n}}
//
// It accepts exactly the bodies that encoding/json, with
// DisallowUnknownFields, decodes into the struct form of that schema, and
// decodes them to the same changes. That includes encoding/json's rules
// beyond the schema: keys match case-insensitively (as bytes.EqualFold
// does) and may be escaped; null leaves a field as it was and makes a
// group absent; a repeated key decodes into the same field again, so a
// repeated group merges into the earlier one and a repeated "changes"
// array decodes element by element into the changes before it; an integer
// with a fraction or exponent, or outside int64, is an error; an unknown
// key is an error at every level; and bytes after the object are ignored.
// Every error names the byte offset, and the change index inside a change.
func decodeUpdate(data []byte) ([]model.Change, bool, error) {
	// Most bodies hold a few changes: parse them on the stack and allocate
	// only the result.
	var changes [16]model.Change
	var meta [16]changeMeta
	d := updateDecoder{data: data, changes: changes[:0], meta: meta[:0], cur: -1}
	if err := d.request(); err != nil {
		return nil, false, err
	}
	if d.n == 0 {
		return nil, false, errors.New("no changes")
	}
	out := make([]model.Change, d.n)
	for i := range out {
		m := d.meta[i]
		if m.kind == 0 {
			name := ""
			if m.kindAt >= 0 {
				name = d.unquote(int(m.kindAt))
			}
			return nil, false, fmt.Errorf("change %d: unknown change kind %q", i, name)
		}
		k := wireKinds[m.kind-1]
		if m.groups&(1<<k.group) == 0 {
			return nil, false, fmt.Errorf("change %d: kind %q requires the %q field", i, k.name, groupNames[k.group])
		}
		ch := &d.changes[i]
		out[i].Kind = k.kind
		switch k.group {
		case groupPost:
			out[i].Post = ch.Post
		case groupComment:
			out[i].Comment = ch.Comment
		case groupUser:
			out[i].User = ch.User
		case groupFriendship:
			out[i].Friendship = ch.Friendship
		case groupLike:
			out[i].Like = ch.Like
		}
	}
	return out, d.wait, nil
}

// request parses the top-level object.
func (d *updateDecoder) request() error {
	d.space()
	if d.peek() != '{' {
		return d.unexpected("a JSON object")
	}
	var err error
	for more := d.open('}'); more && err == nil; {
		var f int
		if f, err = d.key(requestFields); err != nil {
			return err
		}
		if f == 0 {
			err = d.changeArray()
		} else {
			err = d.boolean(&d.wait)
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// changeArray parses the value of "changes": null or [] leaves no changes,
// and element i of an array decodes into change i as left so far.
func (d *updateDecoder) changeArray() error {
	switch d.peek() {
	case 'n':
		d.changes, d.meta, d.n = d.changes[:0], d.meta[:0], 0
		return d.literal("null")
	case '[':
	default:
		return d.unexpected(`an array for "changes"`)
	}
	var err error
	i := 0
	for more := d.open(']'); more && err == nil; i++ {
		if i == len(d.changes) {
			d.grow()
		}
		d.cur = i
		if err = d.change(&d.changes[i], &d.meta[i]); err == nil {
			more, err = d.next(']')
		}
	}
	if err != nil {
		return err
	}
	d.cur = -1
	d.n = i
	if i == 0 {
		d.changes, d.meta = d.changes[:0], d.meta[:0]
	}
	return nil
}

// grow adds a fresh element to changes and meta. It copies them into new
// arrays when full instead of appending, so that the stack arrays
// decodeUpdate starts them on do not escape.
func (d *updateDecoder) grow() {
	n := len(d.changes)
	if n == cap(d.changes) {
		changes := make([]model.Change, n, 2*n)
		copy(changes, d.changes)
		meta := make([]changeMeta, n, 2*n)
		copy(meta, d.meta)
		d.changes, d.meta = changes, meta
	}
	d.changes, d.meta = d.changes[:n+1], d.meta[:n+1]
	d.changes[n], d.meta[n] = model.Change{}, changeMeta{kindAt: -1}
}

// change parses one element of "changes" into ch and m; null leaves them
// as they are.
func (d *updateDecoder) change(ch *model.Change, m *changeMeta) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.unexpected("a change object")
	}
	var err error
	for more := d.open('}'); more && err == nil; {
		var f int
		if f, err = d.key(changeFields); err != nil {
			return err
		}
		if f == 0 {
			err = d.kind(m)
		} else {
			err = d.group(ch, m, f-1)
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// kind parses the value of "kind": a string, or null, which leaves it.
func (d *updateDecoder) kind(m *changeMeta) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.unexpected(`a string for "kind"`)
	}
	start := d.off
	plain, err := d.str()
	if err != nil {
		return err
	}
	m.kindAt = int32(start)
	m.kind = 0
	// The longest wire kind is 17 bytes, all ASCII.
	var buf [18]byte
	name := d.data[start+1 : d.off-1]
	if !plain {
		name = buf[:0]
		for s, i := d.data[start+1:d.off-1], 0; i < len(s) && len(name) < len(buf); {
			var r rune
			if r, i = nextRune(s, i); r >= utf8.RuneSelf {
				return nil
			}
			name = append(name, byte(r))
		}
	}
	for k := range wireKinds {
		if string(name) == wireKinds[k].name {
			m.kind = uint8(k + 1)
			break
		}
	}
	return nil
}

// group parses the value of field group g of ch. An object marks the
// group present and sets the fields it names; null makes it absent and
// zero.
func (d *updateDecoder) group(ch *model.Change, m *changeMeta, g int) error {
	var fields [4]*int64 // in the order of groupFields[g]
	switch g {
	case groupPost:
		fields = [4]*int64{&ch.Post.ID, &ch.Post.Timestamp}
	case groupComment:
		fields = [4]*int64{&ch.Comment.ID, &ch.Comment.Timestamp, &ch.Comment.ParentID, &ch.Comment.PostID}
	case groupUser:
		fields = [4]*int64{&ch.User.ID}
	case groupFriendship:
		fields = [4]*int64{&ch.Friendship.User1, &ch.Friendship.User2}
	case groupLike:
		fields = [4]*int64{&ch.Like.UserID, &ch.Like.CommentID}
	}
	names := groupFields[g]
	switch d.peek() {
	case 'n':
		m.groups &^= 1 << g
		for _, p := range fields[:len(names)] {
			*p = 0
		}
		return d.literal("null")
	case '{':
	default:
		return d.unexpected(fmt.Sprintf("an object for %q", groupNames[g]))
	}
	m.groups |= 1 << g
	var err error
	for more := d.open('}'); more && err == nil; {
		var f int
		if f, err = d.key(names); err == nil {
			if err = d.integer(fields[f]); err == nil {
				more, err = d.next('}')
			}
		}
	}
	return err
}

// integer parses an int64 into p; null leaves p as it is.
func (d *updateDecoder) integer(p *int64) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.unexpected("an integer")
	}
	neg := c == '-'
	if neg {
		d.off++
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var u uint64
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case c >= '1' && c <= '9':
		for ; d.off < len(d.data) && d.data[d.off] >= '0' && d.data[d.off] <= '9'; d.off++ {
			dig := uint64(d.data[d.off] - '0')
			if u > (limit-dig)/10 {
				return d.errorf("integer overflows int64")
			}
			u = u*10 + dig
		}
	default:
		return d.unexpected("a digit")
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		return d.errorf("number is not an integer")
	}
	if neg {
		*p = -int64(u-1) - 1
	} else {
		*p = int64(u)
	}
	return nil
}

// boolean parses true or false into p; null leaves p as it is.
func (d *updateDecoder) boolean(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.unexpected(`a boolean for "wait"`)
}

// key parses an object key and the colon after it. It returns the index
// of the name the key matches as encoding/json matches struct fields (by
// bytes.EqualFold), or an error for an unknown key.
func (d *updateDecoder) key(names []string) (int, error) {
	if d.peek() != '"' {
		return 0, d.unexpected("a key")
	}
	start := d.off
	plain, err := d.str()
	if err != nil {
		return 0, err
	}
	s := d.data[start+1 : d.off-1]
	f := -1
	if plain {
		for j, name := range names {
			if string(s) == name {
				f = j
				break
			}
		}
	}
	if f < 0 {
		if f = foldedMatch(s, names); f < 0 {
			return 0, d.unknownKey(start)
		}
	}
	d.space()
	if d.peek() != ':' {
		return 0, d.unexpected("':'")
	}
	d.off++
	d.space()
	return f, nil
}

// foldedMatch returns the index of the name in names that key, the
// contents of a checked string token, matches after folding, or -1. It
// folds as encoding/json does: ASCII case-insensitively, and any other
// rune to the smallest rune of its case-folding orbit. Every name is
// ASCII, so a key with a rune that does not fold to ASCII, or longer than
// every name, matches none.
func foldedMatch(key []byte, names []string) int {
	var buf [10]byte
	folded := buf[:0]
	for i := 0; i < len(key); {
		var r rune
		if r, i = nextRune(key, i); r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || len(folded) == len(buf) {
			return -1
		}
		folded = append(folded, byte(r))
	}
	for j, name := range names {
		if strings.EqualFold(string(folded), name) {
			return j
		}
	}
	return -1
}

// foldRune is the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// str consumes the string token at d.off, checking it as a JSON scanner
// does, and reports whether it is plain: ASCII without escapes, so its
// bytes are its value.
func (d *updateDecoder) str() (plain bool, err error) {
	data, i := d.data, d.off+1
	for ; i < len(data); i++ {
		if c := data[i]; c == '"' {
			d.off = i + 1
			return true, nil
		} else if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	d.off = i
	return false, d.strRest()
}

// strRest consumes the rest of a string token that is not plain from
// d.off on.
func (d *updateDecoder) strRest() error {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return nil
		case c == '\\':
			d.off++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					d.off++
					if !isHex(d.peek()) {
						return d.unexpected("a hexadecimal digit")
					}
				}
			default:
				return d.unexpected("an escape character")
			}
		case c < ' ':
			return d.unexpected("a string character")
		}
	}
	return d.unexpected("'\"'")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hexValue(s []byte) rune {
	var r rune
	for _, c := range s {
		switch {
		case c <= '9':
			r = r<<4 | rune(c-'0')
		case c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			r = r<<4 | rune(c-'a'+10)
		}
	}
	return r
}

// nextRune decodes the rune at s[i] of a checked string token's contents
// and returns it with the offset after it, as encoding/json unquotes: an
// invalid UTF-8 byte or a \u escape of an unpaired surrogate is
// utf8.RuneError.
func nextRune(s []byte, i int) (rune, int) {
	if c := s[i]; c != '\\' {
		if c < utf8.RuneSelf {
			return rune(c), i + 1
		}
		r, n := utf8.DecodeRune(s[i:])
		return r, i + n
	}
	switch c := s[i+1]; c {
	case 'b':
		return '\b', i + 2
	case 'f':
		return '\f', i + 2
	case 'n':
		return '\n', i + 2
	case 'r':
		return '\r', i + 2
	case 't':
		return '\t', i + 2
	case 'u':
		r := hexValue(s[i+2 : i+6])
		i += 6
		if !utf16.IsSurrogate(r) {
			return r, i
		}
		if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
			if pair := utf16.DecodeRune(r, hexValue(s[i+2:i+6])); pair != unicode.ReplacementChar {
				return pair, i + 6
			}
		}
		return unicode.ReplacementChar, i
	default: // '"', '\\' or '/'
		return rune(c), i + 2
	}
}

// unquote is the value of the checked string token at start, for an
// error message.
func (d *updateDecoder) unquote(start int) string {
	var b strings.Builder
	s := d.data[start+1:]
	for i := 0; s[i] != '"'; {
		var r rune
		r, i = nextRune(s, i)
		b.WriteRune(r)
	}
	return b.String()
}

// literal consumes the literal lit (null, true or false) at d.off.
func (d *updateDecoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.unexpected(lit)
	}
	d.off += len(lit)
	return nil
}

// open consumes the '{' or '[' at d.off and the space after it, and
// reports whether a member follows: false when it consumed the closing
// byte too.
func (d *updateDecoder) open(closing byte) bool {
	d.off++
	d.space()
	if d.peek() == closing {
		d.off++
		return false
	}
	return true
}

// next consumes the space after a member and then a comma, reporting that
// another member follows, or the closing byte.
func (d *updateDecoder) next(closing byte) (bool, error) {
	d.space()
	switch d.peek() {
	case ',':
		d.off++
		d.space()
		return true, nil
	case closing:
		d.off++
		return false, nil
	}
	return false, d.unexpected(fmt.Sprintf("',' or '%c'", closing))
}

func (d *updateDecoder) space() {
	i := d.off
	for ; i < len(d.data); i++ {
		if c := d.data[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
	}
	d.off = i
}

// peek is the byte at d.off, or 0 at the end of the body: no JSON value
// or delimiter starts with a 0 byte, so every check fails there.
func (d *updateDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *updateDecoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of body, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.off], want)
}

func (d *updateDecoder) unknownKey(start int) error {
	d.off = start
	return d.errorf("unknown field %q", d.unquote(start))
}

func (d *updateDecoder) errorf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if d.cur >= 0 {
		return fmt.Errorf("change %d: %s at byte %d", d.cur, msg, d.off)
	}
	return fmt.Errorf("%s at byte %d", msg, d.off)
}
