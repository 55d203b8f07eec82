#pragma once
// TenantTable/TenantSpec live beside AdmissionController in the engine's admission layer.
#include "serve/resilience.h"
