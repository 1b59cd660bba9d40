package warehouse

import (
	"encoding/json"
	"fmt"
)

// TableSize reports the number of entries in the table of documents,
// for the external tests.
var TableSize = tableSize

// validRecord answers a backend scan's valid callback with
// decodeRecord, keeping nothing.
func validRecord(payload []byte) bool {
	var r Record
	return decodeRecord(payload, &r)
}

// parseRecords decodes the payloads a backend scan returned with
// json.Unmarshal, the decoder decodeRecord replaced, so tests that read
// a journal this way check the two against each other.
func parseRecords(payloads [][]byte) ([]Record, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	records := make([]Record, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal(p, &records[i]); err != nil {
			return nil, fmt.Errorf("warehouse: journal record %d corrupt: %w", i, err)
		}
	}
	return records, nil
}
