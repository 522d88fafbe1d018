package model

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseChange holds readRecords to its contract on change files, whose
// records are a change tag and the fields of that kind's family (see
// checkReadRecords).
func FuzzParseChange(f *testing.F) {
	f.Add([]byte("post,1,2\ncomment,3,4,1,1\nuser,5\nfriend,5,6\nlike,5,3\nunfriend,5,6\nunlike,5,3\n"))
	f.Add([]byte("post,1\n"))                   // too few fields
	f.Add([]byte("post,1,2,3\n"))               // too many fields
	f.Add([]byte("explode,1,2\n"))              // unknown tag
	f.Add([]byte("user,9223372036854775808\n")) // int64 overflow
	f.Add([]byte("user,-1\nlike,x,y\n"))
	f.Add([]byte(",,,\n\"un\nclosed"))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xff, 0xfe, ','})
	f.Add([]byte("user\r\n\r\nuser,\nlike,1,2\r"))
	f.Add([]byte("\"user\",1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadRecords(t, data, -1)
	})
}

// FuzzReadRecords holds readRecords to its contract on snapshot files,
// whose records are the fields of one family (see checkReadRecords).
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte("1,2\n3,4\n"), uint8(KeyPost))
	f.Add([]byte("1,2\r\n\r\n\n-3,+4\r"), uint8(KeyLike))
	f.Add([]byte("1,2,3,4\n5,6,7\n"), uint8(KeyComment))
	f.Add([]byte("9223372036854775807\n-9223372036854775808\n9223372036854775808\n"), uint8(KeyUser))
	f.Add([]byte("000000000000000000000000001\n"), uint8(KeyUser))
	f.Add([]byte("1,2\n\"3\",\"4\"\n5,6\n"), uint8(KeyFriendship))
	f.Add([]byte("1,2\n\"3\n\",4\n"), uint8(KeyPost))
	f.Add([]byte("1,2\n3\"4,5\n"), uint8(KeyPost))
	f.Add([]byte("1,x\n1,2,3\n"), uint8(KeyLike))
	f.Add([]byte("1\r\r\n2\n"), uint8(KeyUser))
	f.Add([]byte{}, uint8(KeyPost))
	f.Fuzz(func(t *testing.T, data []byte, family uint8) {
		checkReadRecords(t, data, int(family%uint8(Families)))
	})
}

// record is one record as read: its change kind (0 in a snapshot file)
// and its integer fields.
type record struct {
	kind ChangeKind
	vals []int64
}

// readOutcome is what a reading of a file yields: its records, or an
// error of one of three classes and the line the error names.
type readOutcome struct {
	rows                       []record
	fieldErr, numErr, otherErr bool
	line                       int
	err                        string
}

func (o *readOutcome) fail(err error, line int) {
	var ne *strconv.NumError
	switch {
	case errors.Is(err, csv.ErrFieldCount):
		o.fieldErr = true
	case errors.As(err, &ne):
		o.numErr = true
	default:
		o.otherErr = true
	}
	o.err, o.line = err.Error(), line
}

// checkReadRecords reads data as a snapshot file of family (a change file
// when family is -1) with readRecords and with the oracle, encoding/csv
// followed by the same tag and field-count checks and strconv.ParseInt,
// and holds readRecords to three properties:
//
//	(a) whatever readRecords accepts, the oracle accepts with the same rows;
//	(b) whatever the oracle accepts from bytes without a double quote,
//	    readRecords accepts with the same rows, and where both fail on
//	    such bytes, they fail alike: a wrong field count, a non-integer
//	    or another error, naming in.csv and the oracle's line;
//	(c) the rows read, written by WriteDataset, read back equal through
//	    ReadDataset.
func checkReadRecords(t *testing.T, data []byte, family int) {

	var want readOutcome
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1
oracle:
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			line := 0
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				line = pe.Line
			}
			want.fail(err, line)
			break
		}
		line, _ := r.FieldPos(0)
		row, off, f := record{}, 0, KeyKind(family)
		if family < 0 {
			var ok bool
			if row.kind, ok = kindOfTag([]byte(rec[0])); !ok {
				want.fail(fmt.Errorf("unknown tag %q", rec[0]), line)
				break
			}
			rec, off, f = rec[1:], 1, kinds[row.kind].family
		}
		if len(rec) != len(f.Fields()) {
			want.fail(csv.ErrFieldCount, line)
			break
		}
		for k, field := range rec {
			v, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				line, _ := r.FieldPos(off + k)
				want.fail(err, line)
				break oracle
			}
			row.vals = append(row.vals, v)
		}
		want.rows = append(want.rows, row)
	}

	var got readOutcome
	if err := readRecords("in.csv", data, 1, family, func(k ChangeKind, v []int64) {
		got.rows = append(got.rows, record{k, append([]int64(nil), v...)})
	}); err != nil {
		got.fail(err, 0)
		if !strings.HasPrefix(got.err, "in.csv: ") {
			t.Fatalf("readRecords(%q) error %q does not name in.csv", data, got.err)
		}
	}
	quoted := bytes.IndexByte(data, '"') >= 0
	switch {
	case got.err == "" && want.err != "":
		t.Fatalf("(a) readRecords(%q) reads %v where the oracle fails: %s", data, got.rows, want.err)
	case got.err == "" && !reflect.DeepEqual(got.rows, want.rows):
		t.Fatalf("(a) readRecords(%q) = %v, the oracle %v", data, got.rows, want.rows)
	case quoted:
	case want.err == "" && got.err != "":
		t.Fatalf("(b) readRecords(%q) fails where the oracle reads %v: %s", data, want.rows, got.err)
	case want.err != "" && (got.fieldErr != want.fieldErr || got.numErr != want.numErr || got.otherErr != want.otherErr):
		t.Fatalf("(b) readRecords(%q) error %q, the oracle %q", data, got.err, want.err)
	case want.err != "" && !strings.Contains(got.err, fmt.Sprintf("line %d", want.line)):
		t.Fatalf("(b) readRecords(%q) error %q does not name line %d", data, got.err, want.line)
	}
	if got.err != "" || len(got.rows) == 0 {
		return
	}

	d := &Dataset{Snapshot: &Snapshot{}}
	if family < 0 {
		var cs ChangeSet
		for _, row := range got.rows {
			ch := Change{Kind: row.kind}
			ch.SetFields(kinds[row.kind].family, row.vals)
			cs.Changes = append(cs.Changes, ch)
		}
		d.ChangeSets = []ChangeSet{cs}
	} else {
		for _, row := range got.rows {
			d.Snapshot.AppendEntities(KeyKind(family), row.vals)
		}
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(dir)
	if err != nil {
		t.Fatalf("(c) rows %v written by WriteDataset fail to read: %v", got.rows, err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("(c) rows %v written by WriteDataset read back as %+v", got.rows, back)
	}
}
