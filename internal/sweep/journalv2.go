package sweep

// Journal v2, read-only: the format before v3, kept so that a v2
// journal migrates to v3 when it is opened (see Journal.migrate). v2
// framed the same space record, but each row record was the row's
// JSON object:
//
//	{"kernel":"...","tput":[...],"time_ns":[...],"bound":[...]}

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// journalMagicV2 is a v2 journal's version header.
const journalMagicV2 = "gpuscale-journal v2\n"

// v2Record is a v2 record payload: the space record (Space set) or a
// row record (Kernel and the three planes set).
type v2Record struct {
	Space  *hw.Space   `json:"space,omitempty"`
	Kernel string      `json:"kernel,omitempty"`
	Tput   []float64   `json:"tput,omitempty"`
	TimeNS []float64   `json:"time_ns,omitempty"`
	Bound  []gcn.Bound `json:"bound,omitempty"`
}

// isV2 reports whether data is a v2 journal, or what a crash while one
// was created left of its magic.
func isV2(data []byte) bool {
	n := min(len(data), len(journalMagicV2))
	return string(data[:n]) == journalMagicV2[:n]
}

// decodeV2Row reads a v2 row record with the same hygiene as the CSV
// loader: journaled cells are all StatusOK, so every measurement must
// be a positive finite number and every bound in range. reason is
// non-empty when the payload is not such a record.
func decodeV2Row(payload []byte, nCfg int) (row journalRow, reason string) {
	var rec v2Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return row, "unparsable record payload"
	}
	if dec.More() {
		return row, "trailing data in record payload"
	}
	switch {
	case rec.Space != nil:
		return row, "duplicate space record"
	case rec.Kernel == "":
		return row, "record with no kernel"
	case len(rec.Tput) != nCfg || len(rec.TimeNS) != nCfg || len(rec.Bound) != nCfg:
		return row, fmt.Sprintf("row record for %q has wrong plane length", rec.Kernel)
	}
	for i := range rec.Tput {
		if !(rec.Tput[i] > 0) || math.IsInf(rec.Tput[i], 0) {
			return row, fmt.Sprintf("row record for %q has out-of-range throughput", rec.Kernel)
		}
		if !(rec.TimeNS[i] > 0) || math.IsInf(rec.TimeNS[i], 0) {
			return row, fmt.Sprintf("row record for %q has out-of-range time", rec.Kernel)
		}
		if rec.Bound[i] < gcn.BoundCompute || rec.Bound[i] > gcn.BoundLaunch {
			return row, fmt.Sprintf("row record for %q has unknown bound", rec.Kernel)
		}
	}
	return journalRow{kernel: rec.Kernel, tput: rec.Tput, timeNS: rec.TimeNS, bound: rec.Bound}, ""
}
