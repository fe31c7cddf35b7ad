package mrt

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// exportedJournal is a small journal as gill-query -mrt exports it
// (index.Service.Export): the daemon's archive stage journaled a v4
// announcement with a community, a v6 announcement from a second VP, and
// a v4 withdrawal, one prefix per record.
const exportedJournal = "64f12980001000040000004e0000fde90000fde8000000010a00fde9c0000201ffffffffffffffffffffffffffffffff003a020000001f4001010040020a02020000fde90000fde74003040a00fde9c00804fde9000718cb007164f1298100100004000000590000fdea0000fde8000000010a00fdeac0000201ffffffffffffffffffffffffffffffff0045020000002e4001010040020a02020000fdea0000fde7800e1a0002011020010db8000000000000000000000001002020010db864f12982001000040000002f0000fde90000fde8000000010a00fde9c0000201ffffffffffffffffffffffffffffffff001b02000418cb00710000"

// FuzzReadRecord feeds arbitrary byte streams to the MRT reader and checks
// the parser invariants: no panic on any input, and every record that
// parses must re-encode to a stream the reader accepts again, with the
// second encoding a byte-level fixed point. The allocation-free view is
// held to the reader on the same bytes: it accepts the same BGP4MP records
// and yields the same canonical updates.
func FuzzReadRecord(f *testing.F) {
	seed := func(s string) {
		b, err := hex.DecodeString(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(goldenBGP4MP)
	seed(goldenRIBV4)
	seed(goldenBGP4MP + goldenRIBV4) // two records back to back
	seed(goldenBGP4MP[:20])          // truncated header
	seed(goldenBGP4MP[:40])          // truncated body
	f.Add([]byte{})
	// Hostile length field: claims more than MaxRecordLen.
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 4, 0xff, 0xff, 0xff, 0xff})
	seed(exportedJournal)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkViewAgrees(t, new(UpdateView), data)
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			rec, err := r.ReadRecord()
			if err != nil {
				return
			}
			wire, err := AppendRecord(nil, rec)
			if err != nil {
				t.Fatalf("parsed record fails to re-encode: %v", err)
			}
			rec2, err := NewReader(bytes.NewReader(wire)).ReadRecord()
			if err != nil {
				t.Fatalf("re-encoded record fails to parse: %v\nwire: %x", err, wire)
			}
			wire2, err := AppendRecord(nil, rec2)
			if err != nil {
				t.Fatalf("second re-encode: %v", err)
			}
			if !bytes.Equal(wire, wire2) {
				t.Fatalf("encode is not a fixed point:\n first: %x\nsecond: %x", wire, wire2)
			}
		}
	})
}
