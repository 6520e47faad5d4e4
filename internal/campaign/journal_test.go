package campaign

import (
	"bytes"
	"testing"
)

// FuzzReadJournal feeds ReadJournal hostile bytes. It must never panic,
// and every record it accepts must survive an EncodeRecord/DecodeRecord
// round trip under its own key. The input's first line is then placed
// around a good record: as the final line a malformed one is dropped (a
// torn write), and before the good record it fails the read.
func FuzzReadJournal(f *testing.F) {
	recs := []Record{
		{Variant: "FastPass-static", Scale: 1, Seed: 1, Created: 120, Delivered: 118, DeliveredFrac: 118.0 / 120, TripCycle: -1},
		{Variant: "FastPass-healing", Scale: 0.5, Seed: 2, Aborted: true, TripCycle: 900, TripDeliveredFrac: 0.25, Heals: 1},
	}
	var journal bytes.Buffer
	if err := WriteJournal(&journal, recs); err != nil {
		f.Fatal(err)
	}
	good, err := EncodeRecord(recs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal.Bytes())
	f.Add(journal.Bytes()[:journal.Len()-10])
	f.Add(append([]byte("{nonsense}\n"), journal.Bytes()...))
	f.Add([]byte("\n\nnull\n{}\r\n"))
	f.Add([]byte(`{"variant":"x","scale":1e400}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		done, err := ReadJournal(bytes.NewReader(data))
		if err == nil {
			for key, r := range done {
				if r.Key() != key {
					t.Errorf("record %+v filed under key %q", r, key)
				}
				line, err := EncodeRecord(r)
				if err != nil {
					t.Fatalf("accepted record %+v does not encode: %v", r, err)
				}
				if back, err := DecodeRecord(line); err != nil || back != r {
					t.Errorf("record %+v does not round-trip: %s decodes to %+v, %v", r, line, back, err)
				}
			}
		}

		// The scanner skips blank lines, strips one trailing \r and
		// refuses a line past its 1 MiB buffer wherever it sits, so only
		// a short first line is placed.
		line, _, _ := bytes.Cut(data, []byte("\n"))
		if len(line) == 0 || len(line) > 1<<16 || line[len(line)-1] == '\r' {
			return
		}
		_, bad := DecodeRecord(line)
		done, err = ReadJournal(bytes.NewReader(bytes.Join([][]byte{good, line}, []byte("\n"))))
		if err != nil {
			t.Errorf("final line %q failed the read: %v", line, err)
		} else if bad != nil && (len(done) != 1 || done[recs[0].Key()] != recs[0]) {
			t.Errorf("malformed final line %q was not dropped: %+v", line, done)
		}
		_, err = ReadJournal(bytes.NewReader(bytes.Join([][]byte{line, good, nil}, []byte("\n"))))
		if (err != nil) != (bad != nil) {
			t.Errorf("line %q before a good record: read error %v, decode error %v", line, err, bad)
		}
	})
}
