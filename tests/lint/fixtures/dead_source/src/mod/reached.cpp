// Pulled in with its header; its own include resolves against this
// file's directory.
#include "mod/reached.hpp"

#include "detail.hpp"

int reached_value() { return detail_value() + 1; }
