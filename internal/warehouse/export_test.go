package warehouse

// TableSize reports the number of entries in the table of documents,
// for the external tests.
var TableSize = tableSize
