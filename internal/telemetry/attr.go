package telemetry

// AttrKey is an event attribute key as it appears on the wire (JSONL field
// names and Chrome-trace args). Keys form a closed enum: the exporters in
// this package write only the constants below, and the JSONL round-trip and
// key-order tests and the pinned telemetry artifacts fail on any other
// spelling.
type AttrKey string

// The registered attribute keys.
const (
	AttrT      AttrKey = "t"
	AttrSeq    AttrKey = "seq"
	AttrKind   AttrKey = "kind"
	AttrRouter AttrKey = "router"
	AttrPeer   AttrKey = "peer"
	AttrDst    AttrKey = "dst"
	AttrFlow   AttrKey = "flow"
	AttrValue  AttrKey = "value"
	AttrLabel  AttrKey = "label"
	AttrPkt    AttrKey = "pkt"
)
