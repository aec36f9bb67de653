// Orphan: no program includes this header (the one finding).
#pragma once

int orphan_value();
