package wire

// ReadGolden exposes the golden-file parser to package wire_test.
var ReadGolden = readGolden
