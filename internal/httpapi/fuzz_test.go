package httpapi

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynfd"
	"dynfd/internal/runtime"
	"dynfd/internal/stream"
)

// batchRequest is the body of POST /v1/tenants/{t}/batch as encoding/json
// sees it.
type batchRequest struct {
	Changes []changeRequest `json:"changes"`
}

// referenceDecodeBatch is the encoding/json batch decoder decodeBatch
// replaced, kept as the oracle it must agree with: the same accepted
// bodies, the same changes.
func referenceDecodeBatch(data []byte, maxChanges int) ([]dynfd.Change, error) {
	var req batchRequest
	if err := unmarshalStrict(data, &req); err != nil {
		return nil, err
	}
	if len(req.Changes) == 0 {
		return nil, fmt.Errorf("batch has no changes")
	}
	if maxChanges > 0 && len(req.Changes) > maxChanges {
		return nil, fmt.Errorf("batch has %d changes (limit %d)", len(req.Changes), maxChanges)
	}
	changes := make([]dynfd.Change, len(req.Changes))
	for i, c := range req.Changes {
		switch c.Op {
		case "insert":
			if c.ID != nil {
				return nil, fmt.Errorf("change %d: insert must not carry an id", i)
			}
			if c.Values == nil {
				return nil, fmt.Errorf("change %d: insert requires values", i)
			}
			changes[i] = dynfd.Insert(c.Values...)
		case "delete":
			if c.ID == nil {
				return nil, fmt.Errorf("change %d: delete requires an id", i)
			}
			if c.Values != nil {
				return nil, fmt.Errorf("change %d: delete must not carry values", i)
			}
			changes[i] = dynfd.Delete(*c.ID)
		case "update":
			if c.ID == nil {
				return nil, fmt.Errorf("change %d: update requires an id", i)
			}
			if c.Values == nil {
				return nil, fmt.Errorf("change %d: update requires values", i)
			}
			changes[i] = dynfd.Update(*c.ID, c.Values...)
		default:
			return nil, fmt.Errorf("change %d: unknown op %q", i, c.Op)
		}
	}
	return changes, nil
}

// checkAgainstReference fails t unless decodeBatch and the encoding/json
// reference agree on data: both reject it, or both accept it with deeply
// equal changes (nil and empty value lists told apart).
func checkAgainstReference(t *testing.T, data []byte, maxChanges int) {
	t.Helper()
	got, err := decodeBatch(data, maxChanges)
	want, werr := referenceDecodeBatch(data, maxChanges)
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q: decodeBatch error %v, encoding/json error %v", data, err, werr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("body %q: decodeBatch returned both changes and error %v", data, err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\ndecodeBatch  %#v\nencoding/json %#v", data, got, want)
	}
}

// quirkBodies are batch bodies on the edges of encoding/json's behaviour.
var quirkBodies = []string{
	`{"changes":[{"op":"insert","values":["14482","Potsdam"]}]}`,
	` {"changes":[{"op":"delete","id":3}]} `,
	`{"changes":[{"op":"update","id":0,"values":["a"]}]}`,
	`{"changes":[]}`,
	`{"changes":null}`,
	`{}`,
	`null`,
	`[]`,
	`{"changes":[{"op":"insert","values":[]}]}`,
	`{"changes":[{"op":"insert","values":null}]}`,
	`{"CHANGES":[{"OP":"insert","Values":["x"]}]}`,
	`{"chanGeſ":[{"op":"insert","valueſ":["x"]}]}`,
	`{"\u0063hanges":[{"o\u0070":"ins\u0065rt","values":["\u00e9"]}]}`,
	`{"changes":[{"op":"delete","id":1}],"changes":[{"op":"insert","values":["y"]}]}`,
	`{"changes":[{"op":"delete","id":1},{"op":"delete","id":2}],"changes":[{"op":"delete","id":7}],"changes":[{"op":"delete","id":8},null]}`,
	`{"changes":[{"op":"insert","values":["a","b"],"values":["c"],"values":["d",null]}]}`,
	`{"changes":[{"op":"insert","op":null,"values":["a"]}]}`,
	`{"changes":[{"op":"delete","id":5,"id":null}]}`,
	`{"changes":[null]}`,
	`{"changes":[{"op":"delete","id":-0}]}`,
	`{"changes":[{"op":"delete","id":-9223372036854775808}]}`,
	`{"changes":[{"op":"delete","id":9223372036854775808}]}`,
	`{"changes":[{"op":"delete","id":99999999999999999999}]}`,
	`{"changes":[{"op":"delete","id":1.0}]}`,
	`{"changes":[{"op":"delete","id":1e2}]}`,
	`{"changes":[{"op":"delete","id":01}]}`,
	`{"changes":[{"op":"delete","id":"1"}]}`,
	`{"changes":[{"op":"insert","values":["\ud83d\ude00","\ud800","\udc00x","\ud800\u0041","a\/b\"\\\b\f\n\r\t"]}]}`,
	"{\"changes\":[{\"op\":\"insert\",\"values\":[\"\xff\xfe\",\"\xed\xa0\x80\",\"ok\xc3\"]}]}",
	"{\"changes\":[{\"op\":\"insert\",\"values\":[\"tab\there\"]}]}",
	`{"changes":[{"op":"insert","values":["\x"]}]}`,
	`{"changes":[{"op":"insert","values":["\u12g4"]}]}`,
	`{"changes":[{"op":"insert","values":["a"]}]}]`,
	`{"changes":[{"op":"insert","values":["a"]}]}}garbage`,
	`{"changes":[{"op":"insert","values":["a"]}]} x`,
	`{"changes":[{"op":"insert","values":["a"]}]}{}`,
	`{"changes":[{"op":"insert","values":["a"]}],"extra":true}`,
	`{"changes":[{"op":"insert","values":["a"],"time":"x"}]}`,
	`{"changes":[{"op":"insert","values":["a"]},]}`,
	`{"changes":[{"op":"insert","values":["a"],}]}`,
	`{"changes":[{"op":"insert","values":[1]}]}`,
	`{"changes":[{"op":true}]}`,
	`{"changes":{"op":"insert"}}`,
	`{"changes":[{"op":"insert","values":["a"]}]`,
	`{"changes":[{"op":"insert","values":[nul]}]}`,
	`{"changes":[{"op":"upsert"}]}`,
	`{"changes":[{"op":"insert","id":1,"values":["x"]}]}`,
	`{"changes":[{"op":"delete","id":1,"values":[]}]}`,
	``,
	`not json at all`,
}

// TestDecodeBatchMatchesEncodingJSON pins the quirks parseBatch
// reproduces against the encoding/json decoder it replaced.
func TestDecodeBatchMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	for _, body := range quirkBodies {
		checkAgainstReference(t, []byte(body), 0)
		checkAgainstReference(t, []byte(body), 1)
	}
	// Spare capacity left by a longer earlier "changes" is reused.
	var long []string
	for i := 0; i < 5; i++ {
		long = append(long, fmt.Sprintf(`{"op":"delete","id":%d}`, i))
	}
	body := `{"changes":[` + strings.Join(long, ",") + `],"changes":[{"op":"delete","id":9}],"changes":[null,null,null]}`
	checkAgainstReference(t, []byte(body), 0)
	// A value list too long for the parser's value arena, then lists
	// whose null elements must read as empty strings.
	many := `"v"` + strings.Repeat(`,"v"`, 599)
	body = `{"changes":[{"op":"insert","values":[` + many + `]},{"op":"insert","values":[null,"x"]},{"op":"insert","values":[null]}]}`
	checkAgainstReference(t, []byte(body), 0)
}

// FuzzHTTPBatchDecode fuzzes the two surfaces that face raw client bytes
// before any engine is touched: the batch decoder and tenant-name
// validation. The decoder must never panic, must agree with the
// encoding/json reference decoder on every body — accept exactly the same
// ones, with equal changes — and must uphold its contract: any accepted
// batch is fully validated and respects the change-count cap.
func FuzzHTTPBatchDecode(f *testing.F) {
	for i, body := range quirkBodies {
		f.Add([]byte(body), []string{"addresses", "t0", "a-b.c_d", "", "UPPER", "..", strings.Repeat("a", 65)}[i%7])
	}
	f.Add(artistBody(f), "name.with.dots")

	f.Fuzz(func(t *testing.T, data []byte, name string) {
		const maxChanges = 8
		checkAgainstReference(t, data, maxChanges)
		changes, err := decodeBatch(data, maxChanges)
		if err == nil {
			if len(changes) == 0 {
				t.Fatalf("decodeBatch accepted %q but returned no changes", data)
			}
			if len(changes) > maxChanges {
				t.Fatalf("decodeBatch accepted %d changes, cap is %d", len(changes), maxChanges)
			}
		}

		nameErr := runtime.ValidateTenantName(name)
		if nameErr == nil {
			// Accepted names must be safe as a path component: no
			// separators, no traversal, bounded length, never empty.
			if name == "" || len(name) > 64 {
				t.Fatalf("ValidateTenantName accepted %q (len %d)", name, len(name))
			}
			if strings.ContainsAny(name, "/\\") || name == "." || name == ".." ||
				strings.HasPrefix(name, ".") {
				t.Fatalf("ValidateTenantName accepted unsafe name %q", name)
			}
		}
	})
}

// artistBody is the JSON body of an artist-shaped 100-change batch (10,000
// rows x 18 columns, as the ledger's artist-ingest workload posts them).
func artistBody(tb testing.TB) []byte {
	tb.Helper()
	changes := artistChanges(tb)
	type wire struct {
		Op     string   `json:"op"`
		ID     *int64   `json:"id,omitempty"`
		Values []string `json:"values,omitempty"`
	}
	out := make([]wire, len(changes))
	for i, c := range changes {
		out[i] = wire{Op: c.Kind.String(), Values: c.Values}
		if c.Kind != stream.Insert {
			id := c.ID
			out[i].ID = &id
		}
	}
	body, err := json.Marshal(map[string]any{"changes": out})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}
