// Including a reached header does not make this module reached.
#include "mod/orphan.hpp"

#include "mod/reached.hpp"

int orphan_value() { return reached_value(); }
