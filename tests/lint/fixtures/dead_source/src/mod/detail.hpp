// Reached only through mod/reached.cpp.
#pragma once

inline int detail_value() { return 41; }
