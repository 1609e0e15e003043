package dht

// Causal-tracing span names and attribute keys. Keys must come from
// this const table (metriclabel analyzer: span attribute keys are
// cardinality-bounded like metric labels); values are free per-trace
// data.
const (
	spanRPCFindSuccessor = "dht.rpc.find_successor"
	spanRPCSuccessors    = "dht.rpc.successors"
	spanRPCPredecessor   = "dht.rpc.predecessor"
	spanRPCNotify        = "dht.rpc.notify"
	spanRPCPing          = "dht.rpc.ping"
	spanRPCStore         = "dht.rpc.store"
	spanRPCRetrieve      = "dht.rpc.retrieve"
	spanServe            = "dht.serve"
	spanOp               = "dht.op"
	spanAttempt          = "dht.attempt"
	spanRetrieve         = "dht.retrieve"
	spanPublish          = "dht.publish"

	attrAddr    = "addr"
	attrMethod  = "method"
	attrOp      = "op"
	attrAttempt = "attempt"
	attrWalked  = "walked"
	attrVia     = "via"
)

// How a Retrieve found the root it read (the via attribute of
// dht.retrieve and the via label of dht_retrieve_root_total): its own
// arc, a remembered member's arc, or a lookup.
const (
	viaOwn    = "own"
	viaMemo   = "memo"
	viaLookup = "lookup"
)

// dumpReasonExhausted prefixes the flight-dump reason when a retry loop
// runs out of attempts or backoff budget.
const dumpReasonExhausted = "dht: retry budget exhausted: "
