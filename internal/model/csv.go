package model

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Dataset directory layout, patterned after the CSV inputs of the TTC 2018
// benchmark framework: one file per entity family, each row the entity's
// fields in the codec order of the family table (layout.go), and one file
// per change set, each row a change's tag (the kind table, layout.go)
// followed by its family's fields:
//
//	posts.csv      id,ts
//	comments.csv   id,ts,parent,post
//	users.csv      id
//	friends.csv    user1,user2
//	likes.csv      user,comment
//	change-NN.csv  post|comment|user|friend|like|unfriend|unlike,fields...
//
// Fields are plain integers; a double quote anywhere in a file is an error.

// snapshotFiles are the snapshot's files by family.
var snapshotFiles = [Families]string{"posts.csv", "comments.csv", "users.csv", "friends.csv", "likes.csv"}

// WriteDataset serializes d into directory dir, creating it if needed.
func WriteDataset(dir string, d *Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s := d.Snapshot
	var vals []int64
	for f := KeyKind(0); f < Families; f++ {
		if err := writeCSV(filepath.Join(dir, snapshotFiles[f]), func(w *rowWriter) error {
			for i := 0; i < s.Len(f); i++ {
				vals = s.AppendFields(vals[:0], f, i, i+1)
				w.row("", vals)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for k := range d.ChangeSets {
		name := filepath.Join(dir, fmt.Sprintf("change-%02d.csv", k+1))
		cs := &d.ChangeSets[k]
		if err := writeCSV(name, func(w *rowWriter) error {
			for i := range cs.Changes {
				ch := &cs.Changes[i]
				f, ok := ch.Kind.Family()
				if !ok {
					return fmt.Errorf("model: unknown change kind %d", ch.Kind)
				}
				vals = ch.AppendFields(vals[:0], f)
				w.row(kinds[ch.Kind].tag, vals)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// rowWriter writes CSV rows of integers, each optionally led by a tag.
type rowWriter struct {
	w    *bufio.Writer
	line []byte
}

func (w *rowWriter) row(tag string, vals []int64) {
	b := append(w.line[:0], tag...)
	for k, v := range vals {
		if k > 0 || tag != "" {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	w.line = append(b, '\n')
	w.w.Write(w.line) // a write error sticks in w.w and is returned by Flush
}

func writeCSV(path string, body func(*rowWriter) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := &rowWriter{w: bufio.NewWriter(f)}
	if err := body(w); err != nil {
		f.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chunkBytes is about how much of a snapshot file one chunk holds:
// ReadDataset cuts each file at the first line end at or past every
// chunkBytes.
const chunkBytes = 256 << 10

// ReadDataset deserializes a dataset directory written by WriteDataset. It
// reads each snapshot file whole and cuts it into chunks at line ends (see
// chunkBytes). A chunk of n lines holds at most n rows, so each family's
// array is allocated once, with a place for every line, before any chunk
// is parsed; then the chunks of every file are parsed through
// readRecords, each straight into its places in its family's array. Both
// steps run on runtime.GOMAXPROCS(0) goroutines, the first a file per
// goroutine. Blank lines leave places unused, which a last serial pass
// closes up. When several files fail, the error of the first in the order
// posts, comments, users, friends, likes is returned, and within a file
// the first line's. Change files are read after them, in name order.
func ReadDataset(dir string) (*Dataset, error) {
	// A chunk is a line-aligned stretch of the file of family f: its bytes,
	// the number of its first line and the place of its first row in the
	// family's array, or the error of reading the file; then what parsing
	// it gave: how many rows, or the error.
	type chunk struct {
		path string
		f    KeyKind
		b    []byte
		line int
		at   int
		rows int
		err  error
	}
	s := &Snapshot{}
	var files [Families][]chunk
	parallel(int(Families), func(i int) {
		f := KeyKind(i)
		path := filepath.Join(dir, snapshotFiles[f])
		b, err := os.ReadFile(path)
		if err != nil {
			files[f] = []chunk{{path: path, f: f, err: err}}
			return
		}
		places := 0
		for line := 1; len(b) > 0; {
			n := len(b)
			if n > chunkBytes {
				if i := bytes.IndexByte(b[chunkBytes-1:], '\n'); i >= 0 {
					n = chunkBytes + i
				}
			}
			files[f] = append(files[f], chunk{path: path, f: f, b: b[:n], line: line, at: places})
			// A place per line, the last one perhaps without its '\n'.
			lines := bytes.Count(b[:n], []byte{'\n'})
			places += lines
			if b[n-1] != '\n' {
				places++
			}
			line += lines
			b = b[n:]
		}
		s.setLen(f, places)
	})
	var chunks []chunk
	for _, fc := range files {
		chunks = append(chunks, fc...)
	}
	parallel(len(chunks), func(i int) {
		c := &chunks[i]
		if c.err != nil {
			return
		}
		at := c.at
		c.err = readRecords(c.path, c.b, c.line, int(c.f), func(_ ChangeKind, v []int64) {
			s.setEntity(c.f, at, v)
			at++
		})
		c.rows = at - c.at
	})

	var rows [Families]int
	var vals []int64
	for i := range chunks {
		c := &chunks[i]
		if c.err != nil {
			return nil, c.err
		}
		for k := 0; rows[c.f] != c.at && k < c.rows; k++ {
			vals = s.AppendFields(vals[:0], c.f, c.at+k, c.at+k+1)
			s.setEntity(c.f, rows[c.f]+k, vals)
		}
		rows[c.f] += c.rows
	}
	for f := KeyKind(0); f < Families; f++ {
		s.setLen(f, rows[f])
	}

	d := &Dataset{Snapshot: s}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var changeFiles []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "change-") && strings.HasSuffix(e.Name(), ".csv") {
			changeFiles = append(changeFiles, e.Name())
		}
	}
	sort.Strings(changeFiles)
	for _, name := range changeFiles {
		var cs ChangeSet
		if err := readCSV(filepath.Join(dir, name), -1, func(k ChangeKind, v []int64) {
			ch := Change{Kind: k}
			ch.SetFields(kinds[k].family, v)
			cs.Changes = append(cs.Changes, ch)
		}); err != nil {
			return nil, err
		}
		d.ChangeSets = append(d.ChangeSets, cs)
	}
	return d, nil
}

// readCSV reads the file at path whole and parses it with readRecords.
func readCSV(path string, family int, row func(ChangeKind, []int64)) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return readRecords(path, b, 1, family, row)
}

// readRecords parses b, a dataset file or a line-aligned stretch of one
// whose first line is line, named path in its errors, calling row with
// each record's change kind and integer fields, in a slice it reuses.
// In a snapshot file (family ≥ 0) every record is the fields of that
// family and its kind is 0; in a change file (family -1) a record's first
// field is a change kind's tag, and the fields of the kind's family
// follow.
//
// It parses the bytes in place, in one pass over each line: lines end in
// \n or \r\n, empty lines are skipped, fields are split at every comma,
// and a field of 1 to 18 digits is summed as it is scanned; any other
// field goes to parseInt once its end is known. A line's errors are
// reported at its end, the first of: a double quote, an unknown tag, a
// wrong field count, the first field that is not an int64. What it
// accepts, encoding/csv (default settings) followed by the same tag and
// count checks and strconv.ParseInt accepts too, with the same rows; on
// input without a double quote the converse holds (FuzzReadRecords,
// FuzzParseChange). A double quote anywhere is an error: no writer of
// dataset files quotes a field. Errors name the file and the line: a
// *csv.ParseError with csv.ErrFieldCount for a wrong field count, a
// *strconv.NumError for a field that is not an int64.
func readRecords(path string, b []byte, line, family int, row func(ChangeKind, []int64)) error {
	var vals [MaxFields]int64
	for p := 0; p < len(b); line, p = line+1, p+1 {
		// b[p:] starts the line; what follows leaves p at its '\n' or at
		// the end of b.
		if b[p] == '\n' || b[p] == '\r' && (p+1 == len(b) || b[p+1] == '\n') {
			if b[p] == '\r' {
				p++
			}
			continue // an empty line
		}
		quote := false
		k, f := ChangeKind(0), KeyKind(family)
		if family < 0 {
			tag := p
			for ; p < len(b) && b[p] != ',' && b[p] != '\n'; p++ {
				quote = quote || b[p] == '"'
			}
			end := p
			if (p == len(b) || b[p] == '\n') && b[end-1] == '\r' {
				end--
			}
			var ok bool
			if k, ok = kindOfTag(b[tag:end]); !ok {
				rest := b[p:]
				if i := bytes.IndexByte(rest, '\n'); i >= 0 {
					rest = rest[:i]
				}
				if quote || bytes.IndexByte(rest, '"') >= 0 {
					return quoteError(path, line)
				}
				return fmt.Errorf("%s: line %d: unknown change tag %q", path, line, b[tag:end])
			}
			f = kinds[k].family
		}
		want, n := len(f.Fields()), 0
		var numErr error
		// Fields follow unless the tag ended the line.
		for more := family >= 0 || p < len(b) && b[p] == ','; more; n++ {
			if family < 0 || n > 0 {
				p++ // past the comma
			}
			// A plain field, 1 to 18 digits ended by a comma or a '\n',
			// is summed as it is scanned; any other field is scanned to its
			// end, which drops a '\r' before a line end, and goes to
			// parseInt.
			start := p
			v, end := digitRun(b, p)
			if p = end; end == len(b) || b[end] != ',' && b[end] != '\n' || end == start || end-start > 18 {
				for ; p < len(b) && b[p] != ',' && b[p] != '\n'; p++ {
					quote = quote || b[p] == '"'
				}
				if end = p; (p == len(b) || b[p] == '\n') && end > start && b[end-1] == '\r' {
					end--
				}
				if n < want && numErr == nil {
					v, numErr = parseInt(b[start:end])
				}
			}
			if n < want {
				vals[n] = v
			}
			more = p < len(b) && b[p] == ','
		}
		switch {
		case quote:
			return quoteError(path, line)
		case n != want:
			return fmt.Errorf("%s: %w", path, &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
		case numErr != nil:
			return fmt.Errorf("%s: line %d: %w", path, line, numErr)
		}
		row(k, vals[:n])
	}
	return nil
}

// digitRun returns the end of the run of decimal digits at b[p:] and
// their value, which is exact if the run is at most 18 digits long. It
// reads eight bytes at a time while eight are left.
func digitRun(b []byte, p int) (int64, int) {
	const ones, high = 0x0101010101010101, 0x8080808080808080
	var v uint64
	for p+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[p:])
		// A byte is a digit if its low seven bits lie in '0'..'9' and
		// its top bit is clear; the subtractions cannot borrow across
		// bytes.
		x7 := x &^ high
		digit := ((x7 | high) - '0'*ones) & ('9'*ones + high - x7) &^ x & high
		n := bits.TrailingZeros64(^digit&high) / 8
		if n == 0 {
			break
		}
		// The n digits, first in the lowest byte, move to the top, and
		// the pairs, quads and octets of digits are summed in place.
		y := (x << (64 - 8*n)) & 0x0F0F0F0F0F0F0F0F
		y = (y * (10<<8 + 1)) >> 8 & 0x00FF00FF00FF00FF
		y = (y * (100<<16 + 1)) >> 16 & 0x0000FFFF0000FFFF
		y = (y * (10000<<32 + 1)) >> 32
		v, p = v*pow10[n]+y, p+n
		if n < 8 {
			return int64(v), p
		}
	}
	for ; p < len(b) && b[p]-'0' <= 9; p++ {
		v = v*10 + uint64(b[p]-'0')
	}
	return int64(v), p
}

var pow10 = [9]uint64{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000}

func quoteError(path string, line int) error {
	return fmt.Errorf("%s: line %d: a double quote (fields are plain integers)", path, line)
}

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string: an
// optional sign and up to 18 digits, which cannot overflow, are summed in
// place; anything else goes to strconv for its value or its error.
func parseInt(b []byte) (int64, error) {
	digits := b
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if b[0] == '-' {
		v = -v
	}
	return v, nil
}
