package model

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseChange feeds arbitrary bytes through the same pipeline
// ReadDataset uses for change-NN.csv files (encoding/csv with variadic
// records, then parseChange): no input may panic — malformed rows must
// come back as errors — and every row that parses must survive a
// write/re-read round trip through the CSV encoding in WriteDataset.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		r := csv.NewReader(bytes.NewReader(data))
		r.FieldsPerRecord = -1
		for {
			rec, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // malformed CSV: ReadDataset surfaces this error
			}
			ch, err := parseChange(rec)
			if err != nil {
				continue
			}
			if ch.Kind.String() == "" {
				t.Fatalf("parsed change has unnamed kind %d", ch.Kind)
			}
		}
	})
}

// FuzzReadRecords is the differential oracle of readRecords, the snapshot
// files' reader: on any bytes and field count it must accept exactly what
// encoding/csv followed by strconv.ParseInt accepts, return the same rows,
// and fail with the same kind of error — a wrong field count or a
// non-integer — naming the file and the line encoding/csv reports.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte("1,2\n3,4\n"), uint8(2))
	f.Add([]byte("1,2\r\n\r\n\n-3,+4\r"), uint8(2))
	f.Add([]byte("1,2,3,4\n5,6,7\n"), uint8(4))
	f.Add([]byte("9223372036854775807\n-9223372036854775808\n9223372036854775808\n"), uint8(1))
	f.Add([]byte("000000000000000000000000001\n"), uint8(1))
	f.Add([]byte("1,2\n\"3\",\"4\"\n5,6\n"), uint8(2))
	f.Add([]byte("1,2\n\"3\n\",4\n"), uint8(2))
	f.Add([]byte("1,2\n3\"4,5\n"), uint8(2))
	f.Add([]byte("1,x\n1,2,3\n"), uint8(2))
	f.Add([]byte("1\r\r\n2\n"), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, fields uint8) {
		n := 1 + int(fields%4)
		type outcome struct {
			rows      [][]int64
			fieldErr  bool // a wrong field count
			numErr    bool // a field that is not an int64
			otherErr  bool
			line      int
			errString string
		}
		classify := func(o *outcome, err error) {
			var ne *strconv.NumError
			switch {
			case errors.Is(err, csv.ErrFieldCount):
				o.fieldErr = true
			case errors.As(err, &ne):
				o.numErr = true
			default:
				o.otherErr = true
			}
			o.errString = err.Error()
		}

		var want outcome
		r := csv.NewReader(bytes.NewReader(data))
		r.FieldsPerRecord = n
	read:
		for {
			rec, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				classify(&want, err)
				var pe *csv.ParseError
				if errors.As(err, &pe) {
					want.line = pe.Line
				}
				break
			}
			row := make([]int64, n)
			for k, field := range rec {
				v, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					classify(&want, err)
					want.line, _ = r.FieldPos(k)
					break read
				}
				row[k] = v
			}
			want.rows = append(want.rows, row)
		}

		var got outcome
		if err := readRecords("in.csv", bytes.NewReader(data), n, func(v []int64) {
			got.rows = append(got.rows, append([]int64(nil), v...))
		}); err != nil {
			classify(&got, err)
		}
		if want.errString == "" {
			if got.errString != "" {
				t.Fatalf("readRecords(%q, %d) failed where encoding/csv reads %v: %s", data, n, want.rows, got.errString)
			}
			if !reflect.DeepEqual(got.rows, want.rows) {
				t.Fatalf("readRecords(%q, %d) = %v, encoding/csv %v", data, n, got.rows, want.rows)
			}
			return
		}
		if got.errString == "" {
			t.Fatalf("readRecords(%q, %d) read %v where encoding/csv fails: %s", data, n, got.rows, want.errString)
		}
		if got.fieldErr != want.fieldErr || got.numErr != want.numErr || got.otherErr != want.otherErr {
			t.Fatalf("readRecords(%q, %d) error %q, encoding/csv %q", data, n, got.errString, want.errString)
		}
		if !strings.HasPrefix(got.errString, "in.csv: ") || !strings.Contains(got.errString, fmt.Sprintf("line %d", want.line)) {
			t.Fatalf("readRecords(%q, %d) error %q does not name in.csv and line %d", data, n, got.errString, want.line)
		}
	})
}
