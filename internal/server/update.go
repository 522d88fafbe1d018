package server

import (
	"encoding/json"
	"fmt"
	"strconv"

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

// The keys of the request and of a change. A change's field groups are its
// keys after "kind", one per entity family in model.KeyKind order; a
// group's keys are its family's fields (model.KeyKind.Fields), and a
// kind's name is its model.ChangeKind.WireName.
var (
	requestFields = []string{"changes", "wait"}
	changeFields  = []string{"kind", "post", "comment", "user", "friendship", "like"}
)

// groupNames are the field groups of a change by family: changeFields
// after "kind".
var groupNames = changeFields[1:]

// WireChange encodes ch as one element of an /update body's "changes",
// for clients replaying model change streams. It writes the form
// decodeUpdate reads: its kind's name and the field group of its family,
// the fields in codec order. A kind outside the table is encoded as
// {"kind":""}, which decodeUpdate rejects.
func WireChange(ch model.Change) json.RawMessage {
	// 128 bytes hold any change whose fields have at most 10 digits.
	b := append(make([]byte, 0, 128), `{"kind":"`...)
	b = append(b, ch.Kind.WireName()...)
	b = append(b, '"')
	if f, ok := ch.Kind.Family(); ok {
		var buf [model.MaxFields]int64
		names := f.Fields()
		b = append(b, `,"`...)
		b = append(b, groupNames[f]...)
		b = append(b, `":{`...)
		for i, v := range ch.AppendFields(buf[:0], f) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, names[i]...)
			b = append(b, `":`...)
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// updateDecoder parses one body.
type updateDecoder struct {
	data    []byte
	off     int
	changes []model.Change
	// heap points to decodeUpdate's variable for the array changes move
	// to once they outgrow its stack array. Escape analysis does not tell
	// d's fields apart, so the result must be kept out of d for the stack
	// array not to escape.
	heap *[]model.Change
	wait bool
	cur  int // the change being parsed, or -1
}

// decodeUpdate parses an /update body into its changes and its wait flag.
// The body is one JSON object:
//
//	{"changes": [change, ...], "wait": bool}
//
// and each change names its kind and carries the field group that kind
// uses (WireChange writes this form; the names and groups come from
// model's kind table):
//
//	{"kind": "add-post",          "post":       {"id": n, "timestamp": n}}
//	{"kind": "add-comment",       "comment":    {"id": n, "timestamp": n, "parent": n, "post": n}}
//	{"kind": "add-user",          "user":       {"id": n}}
//	{"kind": "add-friendship",    "friendship": {"user1": n, "user2": n}}
//	{"kind": "remove-friendship", "friendship": {"user1": n, "user2": n}}
//	{"kind": "add-like",          "like":       {"user": n, "comment": n}}
//	{"kind": "remove-like",       "like":       {"user": n, "comment": n}}
//
// It accepts exactly this schema. "changes" is a non-empty array and
// "wait" is optional (false when absent). A change has "kind" and the
// field group of that kind, and nothing else; a group has every one of
// its fields, each an int64 written without a fraction or an exponent.
// Keys may come in any order, match byte for byte, are plain ASCII
// without escapes and appear at most once in an object; null is never a
// value, and only JSON whitespace may follow the object. encoding/json
// decodes every body this accepts, into the struct form of the schema,
// to the same changes. Every error names the byte offset, and the change
// index inside a change.
func decodeUpdate(data []byte) ([]model.Change, bool, error) {
	// Most bodies hold a few changes: parse them on the stack and allocate
	// only the result. A body with more is parsed into the heap array that
	// grow makes, and that is the result.
	var changes [16]model.Change
	var heap []model.Change
	d := updateDecoder{data: data, changes: changes[:0], heap: &heap, cur: -1}
	if err := d.request(); err != nil {
		return nil, false, err
	}
	if heap != nil {
		return heap[:len(d.changes)], d.wait, nil
	}
	out := make([]model.Change, len(d.changes))
	copy(out, d.changes)
	return out, d.wait, nil
}

// request parses the top-level object and the space after it.
func (d *updateDecoder) request() error {
	d.space()
	if d.peek() != '{' {
		return d.unexpected("a JSON object")
	}
	var seen uint8
	var err error
	for more := d.open('}'); more && err == nil; {
		var f int
		if f, err = d.key(requestFields, &seen); err != nil {
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
	if err != nil {
		return err
	}
	if seen&1 == 0 {
		return d.lacks("the request", "changes")
	}
	d.space()
	if d.off < len(d.data) {
		return d.unexpected("the end of the body")
	}
	return nil
}

// changeArray parses the value of "changes": a non-empty array of changes.
func (d *updateDecoder) changeArray() error {
	if d.peek() != '[' {
		return d.unexpected(`an array for "changes"`)
	}
	if !d.open(']') {
		d.off--
		return d.errorf("no changes")
	}
	for more := true; more; {
		d.cur = len(d.changes)
		d.grow()
		if err := d.change(&d.changes[d.cur]); err != nil {
			return err
		}
		var err error
		if more, err = d.next(']'); err != nil {
			return err
		}
	}
	d.cur = -1
	return nil
}

// grow adds an element to changes. It copies them into a new array, held
// in *heap, when full instead of appending, so that the stack array
// decodeUpdate starts them on does not escape. Elements past the length
// were never written, so the new one is zero.
func (d *updateDecoder) grow() {
	n := len(d.changes)
	if n == cap(d.changes) {
		*d.heap = make([]model.Change, n, 2*n)
		copy(*d.heap, d.changes)
		d.changes = *d.heap
	}
	d.changes = d.changes[:n+1]
}

// change parses one element of "changes" into ch: its kind and the field
// group that kind uses.
func (d *updateDecoder) change(ch *model.Change) error {
	if d.peek() != '{' {
		return d.unexpected("a change object")
	}
	var seen uint8 // a bit per index of changeFields
	var kind model.ChangeKind
	var err error
	for more := d.open('}'); more && err == nil; {
		var f int
		if f, err = d.key(changeFields, &seen); err != nil {
			return err
		}
		if f == 0 {
			kind, err = d.kind()
		} else {
			err = d.group(ch, model.KeyKind(f-1))
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	if err != nil {
		return err
	}
	if seen&1 == 0 {
		return d.lacks("the change", "kind")
	}
	group, _ := kind.Family()
	if want := uint8(1 | 2<<group); seen != want {
		d.off--
		if seen&want != want {
			return d.errorf("kind %q requires the %q field", kind.WireName(), groupNames[group])
		}
		return d.errorf("kind %q takes no field group but the %q field", kind.WireName(), groupNames[group])
	}
	ch.Kind = kind
	return nil
}

// kind parses the value of "kind", a kind's WireName, and returns the
// kind.
func (d *updateDecoder) kind() (model.ChangeKind, error) {
	if d.peek() != '"' {
		return 0, d.unexpected(`a string for "kind"`)
	}
	start := d.off
	name, err := d.str()
	if err != nil {
		return 0, err
	}
	if k, ok := model.WireKind(name); ok {
		return k, nil
	}
	d.off = start
	return 0, d.errorf("unknown change kind %q", string(name))
}

// group parses the value of the field group of family f into ch: an
// object with every field of the family. It does not depend on ch's kind,
// which may come after the group.
func (d *updateDecoder) group(ch *model.Change, f model.KeyKind) error {
	if d.peek() != '{' {
		return d.unexpected(fmt.Sprintf("an object for %q", groupNames[f]))
	}
	names := f.Fields()
	var vals [model.MaxFields]int64 // in the order of names
	var seen uint8
	var err error
	for more := d.open('}'); more && err == nil; {
		var k int
		if k, err = d.key(names, &seen); err == nil {
			if err = d.integer(&vals[k]); err == nil {
				more, err = d.next('}')
			}
		}
	}
	if err != nil {
		return err
	}
	for k, name := range names {
		if seen&(1<<k) == 0 {
			return d.lacks(strconv.Quote(groupNames[f]), name)
		}
	}
	ch.SetFields(f, vals[:len(names)])
	return nil
}

// integer parses an int64 into p.
func (d *updateDecoder) integer(p *int64) error {
	c := d.peek()
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

// boolean parses true or false into p.
func (d *updateDecoder) boolean(p *bool) error {
	switch d.peek() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.unexpected(`a boolean for "wait"`)
}

// key parses an object key and the colon after it, and returns the index
// of the name in names the key equals. seen holds a bit per name already
// parsed in the object; a key not in names, or seen before, is an error.
func (d *updateDecoder) key(names []string, seen *uint8) (int, error) {
	if d.peek() != '"' {
		return 0, d.unexpected("a key")
	}
	start := d.off
	s, err := d.str()
	if err != nil {
		return 0, err
	}
	f := -1
	for j, name := range names {
		if string(s) == name {
			f = j
			break
		}
	}
	switch {
	case f < 0:
		d.off = start
		return 0, d.errorf("unknown field %q", string(s))
	case *seen&(1<<f) != 0:
		d.off = start
		return 0, d.errorf("repeated field %q", string(s))
	}
	*seen |= 1 << f
	d.space()
	if d.peek() != ':' {
		return 0, d.unexpected("':'")
	}
	d.off++
	d.space()
	return f, nil
}

// str consumes the string token at d.off and returns its contents. Keys
// and kinds are plain: printable ASCII without escapes, so that their
// bytes are their value.
func (d *updateDecoder) str() ([]byte, error) {
	start := d.off + 1
	for d.off = start; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c == '"' {
			d.off++
			return d.data[start : d.off-1], nil
		} else if c < ' ' || c == '\\' || c > '~' {
			return nil, d.unexpected("printable ASCII without escapes")
		}
	}
	return nil, d.unexpected(`'"'`)
}

// literal consumes the literal lit (true or false) at d.off.
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
	switch {
	case d.off >= len(d.data):
		return d.errorf("unexpected end of body, want %s", want)
	case d.data[d.off] >= 0x80: // %q would print it as the rune of that value
		return d.errorf("unexpected byte %#x, want %s", d.data[d.off], want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.off], want)
}

// lacks reports that object, closed at d.off-1, lacks key.
func (d *updateDecoder) lacks(object, key string) error {
	d.off--
	return d.errorf("%s lacks %q", object, key)
}

func (d *updateDecoder) errorf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if d.cur >= 0 {
		return fmt.Errorf("change %d: %s at byte %d", d.cur, msg, d.off)
	}
	return fmt.Errorf("%s at byte %d", msg, d.off)
}
